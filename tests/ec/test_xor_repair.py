"""The normalized MDS generator: parity 0 is the XOR of the data, and a
single erased data chunk is repaired by XOR alone.

``ReedSolomonCode._solve`` -- the general ``gf_matmul_rows`` solve every
other erasure pattern takes -- is the reference the XOR repair is held to,
bit for bit, on codewords and on arbitrary bytes alike (both are the same
linear map, so they agree on any input).
"""

from itertools import combinations

import numpy as np
import pytest

from repro.common.units import KiB
from repro.ec import ReedSolomonCode, SegmentedCode, get_codec, gf256, reed_solomon
from repro.ec.segmented import PAD_BYTE

from tests.golden.test_ec_vectors import vector_bytes

#: Every shape the exhaustive and generator checks cover.
SHAPES = [(4, 2), (6, 3), (3, 4), (8, 4), (32, 8)]


def _coded(code, data):
    parity = code.encode(data)
    return {i: data[i] for i in range(code.k)} | {
        code.k + j: parity[j] for j in range(code.m)
    }


def _reference(code, chunks, lost):
    """Erased row ``lost`` by the general solve, from the same chunks."""
    survivors = [r for r in range(code.k) if r != lost]
    out = np.zeros((code.k, len(chunks[code.k])), dtype=np.uint8)
    out[survivors] = [chunks[r] for r in survivors]
    return code._solve(out, chunks, survivors, [lost])[0]


@pytest.mark.parametrize("k, m", SHAPES)
def test_parity_zero_is_the_xor_of_the_data(k, m):
    code = ReedSolomonCode(k, m)
    assert (code.generator[k] == 1).all()
    data = vector_bytes(k * 37, seed=k * 100 + m).reshape(k, 37)
    assert np.array_equal(code.encode(data)[0], np.bitwise_xor.reduce(data, axis=0))


def test_rs2d_axis_codes_are_plain_xor():
    code = get_codec("rs2d", 16, 8)
    for axis in (code.row_code, code.col_code):
        assert axis.m == 1 and (axis.generator[axis.k :] == 1).all()
    data = vector_bytes(16 * 64, seed=7).reshape(16, 64)
    parity = code.encode(data)
    grid = data.reshape(4, 4, 64)
    assert np.array_equal(parity[:4], np.bitwise_xor.reduce(grid, axis=1))
    assert np.array_equal(parity[4:], np.bitwise_xor.reduce(grid, axis=0))


@pytest.mark.parametrize("k, m", [(4, 2), (6, 3), (3, 4), (8, 4)])
def test_every_k_subset_decodes(k, m):
    """MDS after normalization: any k of the k + m coded chunks decode."""
    code = ReedSolomonCode(k, m)
    data = vector_bytes(k * 17, seed=k * 10 + m).reshape(k, 17)
    coded = _coded(code, data)
    for kept in combinations(range(k + m), k):
        chunks = {i: coded[i] for i in kept}
        assert np.array_equal(code.decode(chunks), data), kept


@pytest.mark.parametrize(
    "k, m, chunk_bytes", [(32, 8, 16 * KiB), (4, 2, 101)], ids=["32_8_16KiB", "4_2_101B"]
)
@pytest.mark.parametrize("noise", [False, True], ids=["codeword", "noise"])
def test_xor_repair_is_the_general_solve_for_every_erasure(k, m, chunk_bytes, noise):
    code = ReedSolomonCode(k, m)
    data = vector_bytes(k * chunk_bytes, seed=11).reshape(k, chunk_bytes)
    coded = _coded(code, data)
    if noise:
        # Not a codeword: the two paths still compute the same linear map.
        coded = {
            i: vector_bytes(chunk_bytes, seed=1000 + i) for i in range(k + m)
        }
    for lost in range(k):
        chunks = {i: c for i, c in coded.items() if i != lost}
        got = code.decode(chunks)
        assert np.array_equal(got[lost], _reference(code, chunks, lost)), lost
        if not noise:
            assert np.array_equal(got, data), lost


def test_xor_repair_of_a_padded_last_segment():
    """The zero pad rows ``decode_rows`` supplies are survivors like any."""
    code = SegmentedCode(ReedSolomonCode(4, 2), chunk_bytes=24)
    length = 427
    payload = vector_bytes(length, seed=5).tobytes()
    layout = code.layout(length)
    seg = layout.nsegments - 1
    _, real = layout.chunk_range(seg)
    assert real < layout.k
    data = code.segment_data(payload, layout, seg)
    parity = code.encode_segment(payload, layout, seg)
    pad = np.full(layout.chunk_bytes, PAD_BYTE, dtype=np.uint8)
    for lost in range(real):
        chunks = {j: data[j] for j in range(real) if j != lost}
        chunks |= {layout.k + j: parity[j] for j in range(layout.m)}
        got = code.decode_rows(layout, seg, chunks)
        assert np.array_equal(got, data), lost
        full = dict.fromkeys(range(real, layout.k), pad) | chunks
        assert np.array_equal(got[lost], _reference(code.base, full, lost)), lost


@pytest.fixture
def built():
    """Codes, their data and coded chunks, built before gathers are refused."""
    codes = {
        "mds": ReedSolomonCode(32, 8),
        "rs2d": get_codec("rs2d", 16, 8),
        "segmented": SegmentedCode(ReedSolomonCode(4, 2), chunk_bytes=24),
    }
    mds_data = vector_bytes(32 * 1024, seed=3).reshape(32, 1024)
    rs2d_data = vector_bytes(16 * 64, seed=4).reshape(16, 64)
    payload = vector_bytes(427, seed=5).tobytes()
    layout = codes["segmented"].layout(427)
    seg = layout.nsegments - 1
    return {
        "codes": codes,
        "mds": (mds_data, _coded(codes["mds"], mds_data)),
        "rs2d": (rs2d_data, _coded(codes["rs2d"], rs2d_data)),
        "segmented": (
            layout, seg, codes["segmented"].segment_data(payload, layout, seg),
            codes["segmented"].encode_segment(payload, layout, seg),
        ),
    }


def test_single_erasure_repairs_gather_nothing(built, monkeypatch):
    codes = built["codes"]

    def gathered(*_args):
        raise AssertionError("a single-erasure repair gathered")

    for name in ("gf_lane_tables", "gf_apply_tables", "gf_matmul_rows",
                 "gf_mat_inv", "gf_matmul"):
        monkeypatch.setattr(gf256, name, gathered)
        monkeypatch.setattr(reed_solomon, name, gathered)

    data, coded = built["mds"]
    for lost in range(32):
        chunks = {i: c for i, c in coded.items() if i != lost}
        assert np.array_equal(codes["mds"].decode(chunks), data), lost

    # One loss per row of the 4 x 4 grid: each row peel is an XOR repair.
    data, coded = built["rs2d"]
    chunks = {i: c for i, c in coded.items() if i not in (0, 5, 10, 15)}
    assert np.array_equal(codes["rs2d"].decode(chunks), data)

    layout, seg, data, parity = built["segmented"]
    chunks = {1: data[1], layout.k: parity[0]}
    assert np.array_equal(codes["segmented"].decode_rows(layout, seg, chunks), data)
