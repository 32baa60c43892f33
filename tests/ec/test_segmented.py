"""Segmented wrapper: arbitrary sizes, deterministic padding, per-segment decode."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigError, DecodeFailure
from repro.ec import ReedSolomonCode, SegmentedCode, SegmentLayout


def payload_of(length: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(
        0, 256, length, dtype=np.uint8
    ).tobytes()


def all_chunks(code: SegmentedCode, payload: bytes) -> dict[int, np.ndarray]:
    """Globally-indexed coded chunks (data + per-segment parity)."""
    layout = code.layout(len(payload))
    chunks: dict[int, np.ndarray] = {}
    for seg in range(layout.nsegments):
        start, real = layout.chunk_range(seg)
        data = code.segment_data(payload, layout, seg)
        for j in range(real):
            chunks[start + j] = data[j]
        parity = code.base.encode(data)
        for j in range(layout.m):
            chunks[layout.nchunks + seg * layout.m + j] = parity[j]
    return chunks


class TestLayout:
    def test_geometry(self):
        lo = SegmentLayout(length=1000, chunk_bytes=100, k=4, m=2)
        assert lo.nchunks == 10
        assert lo.nsegments == 3
        assert lo.chunk_range(0) == (0, 4)
        assert lo.chunk_range(2) == (8, 2)  # partial final segment
        assert lo.segment_bytes(2) == 200
        assert lo.segment_of(9) == 2

    def test_exact_multiple(self):
        lo = SegmentLayout(length=800, chunk_bytes=100, k=4, m=2)
        assert lo.nsegments == 2
        assert lo.chunk_range(1) == (4, 4)
        assert lo.segment_bytes(1) == 400

    def test_single_byte_message(self):
        lo = SegmentLayout(length=1, chunk_bytes=4096, k=32, m=8)
        assert lo.nchunks == 1
        assert lo.nsegments == 1
        assert lo.chunk_range(0) == (0, 1)
        assert lo.segment_bytes(0) == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            SegmentLayout(length=0, chunk_bytes=8, k=4, m=2)
        with pytest.raises(ConfigError):
            SegmentLayout(length=8, chunk_bytes=0, k=4, m=2)
        with pytest.raises(ConfigError):
            SegmentLayout(length=8, chunk_bytes=8, k=0, m=2)
        with pytest.raises(ConfigError, match="chunk_bytes must be > 0, got 0"):
            SegmentedCode(ReedSolomonCode(4, 2), chunk_bytes=0)
        lo = SegmentLayout(length=80, chunk_bytes=8, k=4, m=2)
        with pytest.raises(ConfigError):
            lo.segment_of(10)
        with pytest.raises(ConfigError):
            lo.chunk_range(3)


class TestRoundtrip:
    @pytest.mark.parametrize("length", [1, 31, 32, 33, 256, 300, 1023])
    def test_lossless(self, length):
        code = SegmentedCode(ReedSolomonCode(4, 2), chunk_bytes=32)
        payload = payload_of(length, seed=length)
        assert code.decode(length, all_chunks(code, payload)) == payload

    def test_padding_is_deterministic(self):
        # Both endpoints must derive identical parity from length alone:
        # the padded tail is all PAD_BYTE, never uninitialized memory.
        code = SegmentedCode(ReedSolomonCode(4, 2), chunk_bytes=32)
        payload = payload_of(70, seed=9)
        layout = code.layout(70)
        a = code.encode_segment(payload, layout, 0)
        b = code.encode_segment(payload, layout, 0)
        assert np.array_equal(a, b)
        data = code.segment_data(payload, layout, 0)
        assert not data[3].any()  # chunk 3 is pure padding
        assert not data[2, 70 - 2 * 32 :].any()  # tail of chunk 2 padded

    def test_full_segment_is_a_read_only_view_of_the_payload(self):
        code = SegmentedCode(ReedSolomonCode(4, 2), chunk_bytes=32)
        payload = payload_of(4 * 32 + 70, seed=11)
        data = code.segment_data(payload, code.layout(len(payload)), 0)
        assert data.shape == (4, 32)
        assert np.shares_memory(data, np.frombuffer(payload, dtype=np.uint8))
        assert not data.flags.writeable
        assert data.tobytes() == payload[: 4 * 32]

    def test_short_last_segment_is_a_zero_padded_copy(self):
        code = SegmentedCode(ReedSolomonCode(4, 2), chunk_bytes=32)
        payload = bytearray(payload_of(4 * 32 + 70, seed=12))
        data = code.segment_data(payload, code.layout(len(payload)), 1)
        assert data.shape == (4, 32)
        assert not np.shares_memory(data, np.frombuffer(payload, dtype=np.uint8))
        assert data.reshape(-1)[:70].tobytes() == payload[4 * 32 :]
        assert not data.reshape(-1)[70:].any()
        payload[4 * 32 :] = bytes(70)  # the copy does not follow its source
        assert data.reshape(-1)[:70].any()

    def test_per_segment_erasures(self):
        # Each segment tolerates m losses independently.
        code = SegmentedCode(ReedSolomonCode(4, 2), chunk_bytes=16)
        payload = payload_of(4 * 16 * 3, seed=10)  # 3 full segments
        chunks = all_chunks(code, payload)
        layout = code.layout(len(payload))
        for seg in range(3):
            start, _ = layout.chunk_range(seg)
            del chunks[start]  # one data chunk per segment
            del chunks[layout.nchunks + seg * 2]  # one parity per segment
        assert code.decode(len(payload), chunks) == payload

    def test_unrecoverable_segment_is_named(self):
        code = SegmentedCode(ReedSolomonCode(4, 2), chunk_bytes=16)
        payload = payload_of(4 * 16 * 2, seed=11)
        chunks = all_chunks(code, payload)
        layout = code.layout(len(payload))
        start, _ = layout.chunk_range(1)
        for j in range(3):  # 3 losses > m = 2 in segment 1
            del chunks[start + j]
        with pytest.raises(DecodeFailure, match="segment 1"):
            code.decode(len(payload), chunks)

    def test_partial_segment_needs_fewer_chunks(self):
        # The final segment's padding chunks are implicit: losing every
        # real data chunk still decodes while parity covers the losses.
        code = SegmentedCode(ReedSolomonCode(4, 2), chunk_bytes=16)
        length = 4 * 16 + 2 * 16  # segment 1 has only 2 real chunks
        payload = payload_of(length, seed=12)
        chunks = all_chunks(code, payload)
        layout = code.layout(length)
        del chunks[4]
        del chunks[5]  # both real chunks of segment 1 lost
        assert code.decode(length, chunks) == payload
        # ...but a third loss (a parity) breaks it.
        del chunks[layout.nchunks + 1 * 2]
        with pytest.raises(DecodeFailure, match="segment 1"):
            code.decode(length, chunks)

    def test_payload_length_mismatch(self):
        code = SegmentedCode(ReedSolomonCode(4, 2), chunk_bytes=16)
        layout = code.layout(100)
        with pytest.raises(ConfigError, match="layout says"):
            code.segment_data(b"x" * 99, layout, 0)
