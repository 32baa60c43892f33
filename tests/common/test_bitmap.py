"""Bitmap unit + property tests (backs the SDR partial-completion API)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitmap import Bitmap
from repro.reliability.base import _delivery_error
from repro.reliability.messages import _window_mask


class TestBasics:
    def test_new_bitmap_is_empty(self):
        bm = Bitmap(17)
        assert len(bm) == 17
        assert bm.count() == 0
        assert not bm.any_set()
        assert not bm.all_set()

    def test_set_and_test(self):
        bm = Bitmap(10)
        assert bm.set(3)
        assert bm.test(3)
        assert not bm.test(4)
        assert bm.count() == 1

    def test_set_is_idempotent(self):
        bm = Bitmap(10)
        assert bm.set(3)
        assert not bm.set(3)  # second set reports no transition
        assert bm.count() == 1

    def test_clear(self):
        bm = Bitmap(10)
        bm.set(7)
        assert bm.clear(7)
        assert not bm.clear(7)
        assert bm.count() == 0

    def test_all_set(self):
        bm = Bitmap(9)
        for i in range(9):
            bm.set(i)
        assert bm.all_set()

    def test_reset(self):
        bm = Bitmap(12)
        for i in (0, 5, 11):
            bm.set(i)
        bm.reset()
        assert bm.count() == 0
        assert not bm.any_set()

    def test_out_of_range(self):
        bm = Bitmap(8)
        with pytest.raises(IndexError):
            bm.set(8)
        with pytest.raises(IndexError):
            bm.test(-1)

    def test_set_takes_numpy_ints(self):
        """An in-range ``int`` skips ``_bit``; anything else goes through it."""
        bm = Bitmap(80)
        assert bm.set(np.int64(70)) and not bm.set(70)
        assert bm.set(np.uint8(3)) and bm.test(3)
        assert bm.count() == 2
        with pytest.raises(TypeError):
            bm.set(1.0)

    @pytest.mark.parametrize(
        "index", [8, 9, 1 << 70, -1, -8, np.int64(8), np.int64(-1)]
    )
    def test_set_out_of_range(self, index):
        bm = Bitmap(8)
        with pytest.raises(IndexError):
            bm.set(index)
        assert bm.count() == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Bitmap(0)


class TestQueries:
    def test_missing(self):
        bm = Bitmap(6)
        bm.set(0)
        bm.set(2)
        assert list(bm.missing()) == [1, 3, 4, 5]

    def test_set_indices(self):
        bm = Bitmap(6)
        bm.set(1)
        bm.set(4)
        assert list(bm.set_indices()) == [1, 4]

    def test_cumulative_empty(self):
        assert Bitmap(5).cumulative() == 0

    def test_cumulative_prefix(self):
        bm = Bitmap(5)
        for i in (0, 1, 3):
            bm.set(i)
        assert bm.cumulative() == 2

    def test_cumulative_full(self):
        bm = Bitmap(5)
        for i in range(5):
            bm.set(i)
        assert bm.cumulative() == 5

    def test_as_array(self):
        bm = Bitmap(10)
        bm.set(9)
        arr = bm.as_array()
        assert arr.dtype == bool
        assert arr[9] and not arr[:9].any()


class TestWireEncoding:
    def test_roundtrip(self):
        bm = Bitmap(20)
        for i in (0, 7, 8, 13, 19):
            bm.set(i)
        clone = Bitmap.from_bytes(20, bm.to_bytes())
        assert list(clone.set_indices()) == list(bm.set_indices())
        assert clone.count() == bm.count()

    def test_window_encoding(self):
        bm = Bitmap(64)
        bm.set(40)
        window = bm.to_bytes(start_bit=32, max_bytes=2)
        assert len(window) == 2
        assert window[1] == 1  # bit 40 = byte 5 (window byte 1), bit 0

    def test_from_bytes_length_check(self):
        with pytest.raises(ValueError):
            Bitmap.from_bytes(16, b"\x00")

    def test_padding_bits_masked(self):
        # Stray bits beyond nbits must not corrupt the popcount.
        clone = Bitmap.from_bytes(3, b"\xff")
        assert clone.count() == 3

    def test_to_bytes_bad_start(self):
        with pytest.raises(IndexError):
            Bitmap(8).to_bytes(start_bit=9)


@settings(max_examples=100)
@given(
    nbits=st.integers(1, 300),
    data=st.data(),
)
def test_property_count_matches_distinct_sets(nbits, data):
    indices = data.draw(
        st.lists(st.integers(0, nbits - 1), min_size=0, max_size=nbits)
    )
    bm = Bitmap(nbits)
    for i in indices:
        bm.set(i)
    distinct = set(indices)
    assert bm.count() == len(distinct)
    assert bm.all_set() == (len(distinct) == nbits)
    assert sorted(bm.set_indices().tolist()) == sorted(distinct)
    # Missing and set indices partition the domain.
    assert set(bm.missing().tolist()) | distinct == set(range(nbits))


@settings(max_examples=60)
@given(nbits=st.integers(1, 200), data=st.data())
def test_property_wire_roundtrip(nbits, data):
    indices = data.draw(st.lists(st.integers(0, nbits - 1), max_size=nbits))
    bm = Bitmap.from_indices(nbits, indices)
    clone = Bitmap.from_bytes(nbits, bm.to_bytes())
    assert np.array_equal(clone.as_array(), bm.as_array())


@settings(max_examples=60)
@given(nbits=st.integers(1, 200), data=st.data())
def test_property_cumulative_is_prefix_length(nbits, data):
    indices = data.draw(st.lists(st.integers(0, nbits - 1), max_size=nbits))
    bm = Bitmap.from_indices(nbits, indices)
    cum = bm.cumulative()
    arr = bm.as_array()
    assert arr[:cum].all()
    assert cum == nbits or not arr[cum]


def _cumulative_reference(bm: Bitmap) -> int:
    """``cumulative()`` as it was computed before it stopped unpacking bits."""
    zeros = np.flatnonzero(~bm.as_array())
    return int(zeros[0]) if zeros.size else len(bm)


@settings(max_examples=300)
@given(nbits=st.integers(1, 1000), data=st.data())
def test_property_cumulative_matches_unpackbits_reference(nbits, data):
    # A solid prefix (whole 0xff bytes are the fast path's first step), then
    # scattered bits, then holes punched through ``clear``.
    prefix = data.draw(st.integers(0, nbits))
    extra = data.draw(st.lists(st.integers(0, nbits - 1), max_size=16))
    bm = Bitmap(nbits)
    bm.set_many(np.arange(prefix))
    for i in extra:
        bm.set(i)
    assert bm.cumulative() == _cumulative_reference(bm)
    for i in data.draw(st.lists(st.integers(0, nbits - 1), max_size=4)):
        bm.clear(i)
        assert bm.cumulative() == _cumulative_reference(bm)


class TestEdgeCases:
    """Boundary geometries the SDR slot machinery actually produces."""

    def test_single_chunk_message(self):
        # A 1-byte message is one chunk: the bitmap is a single bit.
        bm = Bitmap(1)
        assert bm.cumulative() == 0
        assert not bm.all_set()
        assert bm.set(0)
        assert bm.all_set()
        assert bm.cumulative() == 1
        assert bm.missing().size == 0
        assert bm.to_bytes() == b"\x01"

    def test_exact_word_boundaries(self):
        # Sizes landing exactly on byte boundaries have no padding bits.
        for nbits in (8, 16, 64):
            bm = Bitmap(nbits)
            for i in range(nbits):
                bm.set(i)
            assert bm.all_set()
            assert bm.to_bytes() == b"\xff" * (nbits // 8)

    def test_last_partial_word(self):
        # One bit past a byte boundary: the final byte holds one real bit
        # and seven padding bits that must stay invisible.
        for nbits in (9, 17, 65):
            bm = Bitmap(nbits)
            assert bm.set(nbits - 1)
            assert bm.count() == 1
            assert bm.cumulative() == 0
            raw = bm.to_bytes()
            assert len(raw) == (nbits + 7) // 8
            assert raw[-1] == 1 << ((nbits - 1) % 8)
            # Setting every bit fills the tail byte only up to nbits.
            for i in range(nbits - 1):
                bm.set(i)
            assert bm.all_set()
            assert bm.as_array().sum() == nbits

    def test_empty_bitmap_queries(self):
        # "Empty" = allocated but nothing received yet.
        bm = Bitmap(40)
        assert not bm.any_set()
        assert bm.count() == 0
        assert bm.cumulative() == 0
        assert list(bm.missing()) == list(range(40))
        assert bm.set_indices().size == 0
        assert not any(bm)
        assert bm.to_bytes() == b"\x00" * 5

    def test_packed_roundtrip_stability(self):
        # from_bytes(to_bytes()) must be a fixpoint: re-encoding the clone
        # yields byte-identical wire bytes, including the padding byte.
        rng = np.random.default_rng(21)
        for nbits in (1, 7, 8, 9, 63, 64, 65, 200):
            bm = Bitmap.from_indices(
                nbits, rng.choice(nbits, size=max(1, nbits // 3), replace=False)
            )
            wire = bm.to_bytes()
            clone = Bitmap.from_bytes(nbits, wire)
            assert clone.to_bytes() == wire
            assert clone.count() == bm.count()
            assert np.array_equal(clone.as_array(), bm.as_array())

    def test_clear_across_word_boundary(self):
        bm = Bitmap(12)
        for i in range(12):
            bm.set(i)
        assert bm.clear(8)  # first bit of the second byte
        assert bm.cumulative() == 8
        assert list(bm.missing()) == [8]
        assert bm.set(8)
        assert bm.all_set()


# -- packed-bitmap fuzz: the wire windows and the failure bitmap --------------


@st.composite
def bitmaps(draw, max_bits=300):
    nbits = draw(st.integers(1, max_bits))
    return Bitmap.from_indices(
        nbits, draw(st.lists(st.integers(0, nbits - 1), max_size=nbits))
    )


@settings(max_examples=150)
@given(bm=bitmaps(), data=st.data())
def test_fuzz_wire_window_is_the_bitmap_from_its_byte(bm, data):
    """A window is the whole encoding's bytes from ``start_bit``'s byte on,
    cut to ``max_bytes``, and the one window decoder reads back exactly
    the bits it covers; the whole encoding round-trips."""
    nbits = len(bm)
    assert np.array_equal(Bitmap.from_bytes(nbits, bm.to_bytes()).as_array(),
                          bm.as_array())
    start = data.draw(st.integers(0, nbits), label="start_bit")
    room = data.draw(st.none() | st.integers(0, 48), label="max_bytes")
    window = bm.to_bytes(start, room)
    assert window == bm.to_bytes()[start // 8 :][:room]
    base = start // 8 * 8
    covered = range(base, min(nbits, base + 8 * len(window)))
    mask = _window_mask(0, base, window, nbits)
    assert [i for i in range(nbits) if mask >> i & 1] == [
        i for i in covered if bm.test(i)
    ]


@settings(max_examples=100)
@given(nbits=st.integers(1, 300), raw=st.binary(max_size=48))
def test_fuzz_from_bytes_takes_exactly_its_byte_count(nbits, raw):
    if len(raw) != -(-nbits // 8):
        with pytest.raises(ValueError):
            Bitmap.from_bytes(nbits, raw)
    else:
        clone = Bitmap.from_bytes(nbits, raw)
        assert clone.count() == int(clone.as_array().sum()) <= nbits


@settings(max_examples=100)
@given(flags=st.lists(st.booleans(), min_size=1, max_size=300))
def test_fuzz_delivery_error_bitmap_unpacks_to_its_flags(flags):
    """``DeliveryError.bitmap`` is MSB-first (chunk 0 in bit 7 of byte 0):
    unpacked to ``total_chunks`` it gives back the flags it was made from."""
    delivered = np.array(flags, dtype=bool)
    err = _delivery_error("gave up", delivered, len(flags))
    unpacked = np.unpackbits(
        np.frombuffer(err.bitmap, np.uint8), count=err.total_chunks
    )
    assert unpacked.astype(bool).tolist() == flags
    assert err.delivered_chunks == sum(flags)
    assert len(err.bitmap) == -(-len(flags) // 8)
