"""Memory regions, NULL mkey and the indirect mkey table."""

import pytest

from repro.common.errors import ConfigError, ResourceError
from repro.verbs.mr import IndirectMkeyTable, MemoryRegion, NullMemoryRegion


class TestMemoryRegion:
    def test_payload_mode_copies_bytes(self):
        buf = bytearray(16)
        mr = MemoryRegion(16, data=buf)
        mr.write(4, 4, b"abcd")
        assert bytes(buf) == b"\x00" * 4 + b"abcd" + b"\x00" * 8
        assert mr.read(4, 4) == b"abcd"

    def test_sized_mode_tracks_counters_only(self):
        mr = MemoryRegion(1024)
        mr.write(0, 512, None)
        assert mr.bytes_written == 512
        assert mr.write_count == 1
        assert mr.read(0, 10) is None

    def test_bounds_enforced(self):
        mr = MemoryRegion(8)
        with pytest.raises(ResourceError):
            mr.write(4, 8, None)
        with pytest.raises(ResourceError):
            mr.read(-1, 2)

    def test_length_data_mismatch(self):
        with pytest.raises(ConfigError):
            MemoryRegion(8, data=bytearray(4))

    def test_unique_rkeys(self):
        assert MemoryRegion(4).rkey != MemoryRegion(4).rkey


class TestNullMr:
    def test_discards_but_counts(self):
        null = NullMemoryRegion()
        null.write(10**12, 4096, b"\x00" * 4096)  # any offset is fine
        assert null.write_count == 1
        assert null.bytes_written == 4096

    def test_read_rejected(self):
        with pytest.raises(ResourceError):
            NullMemoryRegion().read(0, 1)


class TestIndirectTable:
    def test_slots_start_null(self):
        table = IndirectMkeyTable(num_slots=4, slot_bytes=100)
        assert all(table.is_null(i) for i in range(4))

    def test_bind_and_resolve(self):
        table = IndirectMkeyTable(num_slots=4, slot_bytes=100)
        mr = MemoryRegion(100, data=bytearray(100))
        table.bind(2, mr)
        got_mr, off, slot = table.resolve(2 * 100 + 37)
        assert got_mr is mr
        assert off == 37
        assert slot == 2

    def test_bind_with_base_offset(self):
        table = IndirectMkeyTable(num_slots=2, slot_bytes=10)
        mr = MemoryRegion(100, data=bytearray(100))
        table.bind(1, mr, base_offset=50)
        _, off, _ = table.resolve(13)
        assert off == 53

    def test_write_through_root(self):
        table = IndirectMkeyTable(num_slots=2, slot_bytes=8)
        buf = bytearray(8)
        table.bind(1, MemoryRegion(8, data=buf))
        slot = table.write(8 + 2, 3, b"xyz")
        assert slot == 1
        assert bytes(buf) == b"\x00\x00xyz\x00\x00\x00"

    def test_invalidate_points_to_null(self):
        table = IndirectMkeyTable(num_slots=2, slot_bytes=8)
        buf = bytearray(8)
        table.bind(0, MemoryRegion(8, data=buf))
        table.invalidate(0)
        table.write(0, 4, b"late")  # discarded
        assert bytes(buf) == b"\x00" * 8
        assert table.null_mr.write_count == 1

    def test_out_of_table_offset(self):
        table = IndirectMkeyTable(num_slots=2, slot_bytes=8)
        with pytest.raises(ResourceError):
            table.resolve(16)
        with pytest.raises(ResourceError):
            table.resolve(-1)

    def test_write_raises_what_resolve_raises(self):
        """``write`` resolves its slot inline and calls ``resolve`` to raise."""
        table = IndirectMkeyTable(num_slots=2, slot_bytes=8)
        for offset in (-1, -9, 16, 23):
            with pytest.raises(ResourceError) as resolved:
                table.resolve(offset)
            with pytest.raises(ResourceError) as written:
                table.write(offset, 1, None)
            assert str(written.value) == str(resolved.value)
        assert table.null_mr.write_count == 0

    def test_write_lands_where_resolve_points(self):
        table = IndirectMkeyTable(num_slots=3, slot_bytes=8)
        buf = bytearray(32)
        table.bind(1, MemoryRegion(32, data=buf), base_offset=4)
        for offset in range(24):
            assert table.write(offset, 1, b"\x01") == table.resolve(offset)[2]
        assert buf == bytearray(4) + b"\x01" * 8 + bytearray(20)
        assert table.null_mr.write_count == 16

    def test_slot_range_checked(self):
        table = IndirectMkeyTable(num_slots=2, slot_bytes=8)
        with pytest.raises(ResourceError):
            table.bind(2, MemoryRegion(8))

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            IndirectMkeyTable(num_slots=0, slot_bytes=8)
        with pytest.raises(ConfigError):
            IndirectMkeyTable(num_slots=1, slot_bytes=0)
