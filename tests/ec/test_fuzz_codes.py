"""Deterministic erasure-pattern fuzz across every codec.

RngStreams-driven (same seed -> same masks, cross-process stable) random
erasure sweeps over RS, XOR, segmented and 2-D codes; every mask must
either decode to the exact original bytes or raise a clean
:class:`DecodeFailure` -- never a wrong answer, never a stray exception.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DecodeFailure
from repro.ec import (
    ReedSolomonCode,
    Rs2dCode,
    SegmentedCode,
    XorCode,
    get_codec,
)
from repro.sim.rng import RngStreams

from tests.ec.test_codecs import coded_chunks, random_data

CODES = [
    pytest.param(lambda: ReedSolomonCode(8, 3), id="rs-8-3"),
    pytest.param(lambda: ReedSolomonCode(16, 8), id="rs-16-8"),
    # m > 8 and up to 11 erasures: encode and decode cross a lane block.
    pytest.param(lambda: ReedSolomonCode(12, 11), id="rs-12-11"),
    pytest.param(lambda: XorCode(8, 4), id="xor-8-4"),
    pytest.param(lambda: Rs2dCode(3, 4, 1, 2), id="rs2d-3x4"),
    pytest.param(lambda: get_codec("rs2d", 16, 8), id="rs2d-4x4"),
]


@pytest.mark.parametrize("factory", CODES)
def test_random_masks_decode_or_fail_cleanly(factory):
    code = factory()
    total = code.k + code.m
    data = random_data(code.k, 25, seed=code.k * 31 + code.m)  # odd length
    rng = RngStreams(1234).get(f"fuzz.{code!r}")
    for trial in range(150):
        present = rng.random(total) > rng.uniform(0.05, 0.6)
        chunks = coded_chunks(code, data)
        for idx in np.flatnonzero(~present):
            del chunks[int(idx)]
        if code.recoverable(present):
            assert np.array_equal(code.decode(chunks), data), (
                f"trial {trial}: recoverable mask decoded wrong bytes"
            )
        else:
            with pytest.raises(DecodeFailure):
                code.decode(chunks)


@pytest.mark.parametrize("factory", CODES)
def test_exactly_k_survivors_always_decode_for_mds(factory):
    """Any k survivors decode for MDS codes; for the structured codes
    (XOR groups, 2-D peel) the predicate decides -- but the two must agree."""
    code = factory()
    total = code.k + code.m
    data = random_data(code.k, 16, seed=7)
    rng = RngStreams(99).get(f"fuzz.exactk.{code!r}")
    mds = isinstance(code, ReedSolomonCode)
    for _ in range(60):
        keep = rng.choice(total, size=code.k, replace=False)
        present = np.zeros(total, dtype=bool)
        present[keep] = True
        chunks = coded_chunks(code, data)
        for idx in np.flatnonzero(~present):
            del chunks[int(idx)]
        if mds:
            assert code.recoverable(present)
        if code.recoverable(present):
            assert np.array_equal(code.decode(chunks), data)
        else:
            with pytest.raises(DecodeFailure):
                code.decode(chunks)


@pytest.mark.parametrize("factory", CODES)
def test_just_unrecoverable_patterns_fail_cleanly(factory):
    """k-1 survivors can never decode (information-theoretic floor)."""
    code = factory()
    total = code.k + code.m
    data = random_data(code.k, 16, seed=8)
    rng = RngStreams(77).get(f"fuzz.floor.{code!r}")
    for _ in range(40):
        keep = rng.choice(total, size=code.k - 1, replace=False)
        present = np.zeros(total, dtype=bool)
        present[keep] = True
        assert not code.recoverable(present)
        chunks = coded_chunks(code, data)
        for idx in np.flatnonzero(~present):
            del chunks[int(idx)]
        with pytest.raises(DecodeFailure):
            code.decode(chunks)


@pytest.mark.parametrize("factory", CODES)
@settings(max_examples=80, deadline=None)
@given(share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_fewer_than_k_present_is_never_recoverable(factory, share, seed):
    """By dimension: any mask, of any shape, with fewer than k chunks present
    is pending -- what ``EcReceiver._recoverable``'s popcount test rests on."""
    code = factory()
    total = code.k + code.m
    count = min(code.k - 1, int(share * code.k))
    present = np.zeros(total, dtype=bool)
    present[np.random.default_rng(seed).permutation(total)[:count]] = True
    assert not code.recoverable(present)


@settings(max_examples=80, deadline=None)
@given(
    length=st.integers(1, 400),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_segmented_tail_below_k_with_padding_is_never_recoverable(
    length, share, seed
):
    """The same floor for a padded tail segment, whose padding chunks count
    as present: real + padding + parity < k never decodes."""
    code = SegmentedCode(ReedSolomonCode(4, 2), chunk_bytes=16)
    layout = code.layout(length)
    seg = layout.nsegments - 1
    _, real = layout.chunk_range(seg)
    padding = layout.k - real
    real_slots = list(range(real)) + list(range(layout.k, layout.k + layout.m))
    count = min(layout.k - padding - 1, int(share * (layout.k - padding)))
    rng = np.random.default_rng(seed)
    kept = [real_slots[i] for i in rng.permutation(len(real_slots))[:count]]
    assert len(kept) + padding < layout.k
    assert not code.recoverable(
        layout, seg,
        [j in kept for j in range(real)],
        [layout.k + j in kept for j in range(layout.m)],
    )
    with pytest.raises(DecodeFailure):
        code.decode_segment(
            layout, seg,
            {j: np.zeros(layout.chunk_bytes, np.uint8) for j in kept},
        )


@pytest.mark.parametrize(
    "base", [ReedSolomonCode(4, 2), XorCode(4, 2)], ids=["rs-4-2", "xor-4-2"]
)
@settings(max_examples=150, deadline=None)
@given(
    length=st.integers(1, 400),
    seg=st.integers(0, 63),
    erased=st.integers(0, 2**6 - 1),
)
def test_recoverable_iff_segment_decodes(base, length, seg, erased):
    """One padding rule: ``SegmentedCode.recoverable`` says yes exactly when
    ``decode_segment`` rebuilds the segment's bytes from the same survivors
    (bit i of ``erased`` drops coded chunk i; padding cannot be dropped)."""
    code = SegmentedCode(base, chunk_bytes=16)
    layout = code.layout(length)
    seg %= layout.nsegments
    _, real = layout.chunk_range(seg)
    payload = np.random.default_rng(length).integers(
        0, 256, length, dtype=np.uint8
    ).tobytes()
    data = code.segment_data(payload, layout, seg)
    parity = code.encode_segment(payload, layout, seg)
    data_present = [not erased >> j & 1 for j in range(real)]
    parity_present = [not erased >> (layout.k + j) & 1 for j in range(layout.m)]
    chunks = {j: data[j] for j in range(real) if data_present[j]}
    chunks.update(
        {layout.k + j: parity[j] for j in range(layout.m) if parity_present[j]}
    )
    off = layout.segment_offset(seg)
    try:
        decoded = code.decode_segment(layout, seg, chunks)
    except DecodeFailure:
        decoded = None
    assert code.recoverable(layout, seg, data_present, parity_present) == (
        decoded == payload[off : off + layout.segment_bytes(seg)]
    )


def test_segmented_fuzz_over_message_sizes():
    code = SegmentedCode(ReedSolomonCode(4, 2), chunk_bytes=16)
    rng = RngStreams(555).get("fuzz.segmented")
    for trial in range(60):
        length = int(rng.integers(1, 400))
        payload = rng.integers(0, 256, length, dtype=np.uint8).tobytes()
        layout = code.layout(length)
        # Build the full global chunk map, then erase at random.
        chunks: dict[int, np.ndarray] = {}
        for seg in range(layout.nsegments):
            start, real = layout.chunk_range(seg)
            seg_data = code.segment_data(payload, layout, seg)
            for j in range(real):
                chunks[start + j] = seg_data[j]
            parity = code.base.encode(seg_data)
            for j in range(layout.m):
                chunks[layout.nchunks + seg * layout.m + j] = parity[j]
        drop_p = float(rng.uniform(0.0, 0.4))
        erased = [idx for idx in list(chunks) if rng.random() < drop_p]
        decodable = True
        for seg in range(layout.nsegments):
            start, real = layout.chunk_range(seg)
            parity0 = layout.nchunks + seg * layout.m
            decodable &= code.recoverable(
                layout, seg,
                [start + j not in erased for j in range(real)],
                [parity0 + j not in erased for j in range(layout.m)],
            )
        for idx in erased:
            del chunks[idx]
        if decodable:
            assert code.decode(length, chunks) == payload, f"trial {trial}"
        else:
            with pytest.raises(DecodeFailure):
                code.decode(length, chunks)


def test_same_seed_same_masks():
    """The fuzz driver itself is deterministic (RngStreams substreams)."""
    a = RngStreams(42).get("fuzz.determinism").random(64)
    b = RngStreams(42).get("fuzz.determinism").random(64)
    assert np.array_equal(a, b)
