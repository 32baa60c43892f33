"""GF(256) field axioms and matrix algebra."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.units import KiB
from repro.ec import gf256, reed_solomon
from repro.ec.gf256 import (
    _TILE,
    gf_apply_tables,
    gf_inv,
    gf_lane_tables,
    gf_mat_inv,
    gf_matmul,
    gf_matmul_rows,
    gf_mul,
    gf_mul_bytes,
    gf_pow,
)
from repro.ec.reed_solomon import ReedSolomonCode

from tests.golden.test_ec_vectors import GOLDEN, vector_bytes

elements = st.integers(0, 255)
nonzero = st.integers(1, 255)


class TestScalarOps:
    def test_multiplicative_identity(self):
        for a in range(256):
            assert gf_mul(a, 1) == a

    def test_zero_annihilates(self):
        for a in range(256):
            assert gf_mul(a, 0) == 0

    def test_known_product_in_0x11d_field(self):
        # In GF(256) with polynomial 0x11D (the RS/ISA-L field):
        # 2 * 142 = 284 = 0x11C, reduced by 0x11D -> 1.
        assert gf_mul(2, 142) == 1
        assert gf_inv(2) == 142

    def test_inverse(self):
        for a in range(1, 256):
            assert gf_mul(a, gf_inv(a)) == 1

    def test_inv_of_zero_rejected(self):
        with pytest.raises(ConfigError):
            gf_inv(0)

    @pytest.mark.parametrize("base", [-1, 256])
    def test_pow_of_a_non_element_is_refused(self, base):
        with pytest.raises(ConfigError, match=f"base must be a GF\\(256\\) element, got {base}"):
            gf_pow(base, 2)

    def test_pow(self):
        assert gf_pow(2, 0) == 1
        assert gf_pow(2, 1) == 2
        assert gf_pow(0, 5) == 0
        assert gf_pow(0, 0) == 1
        # Fermat: a^255 = 1 for nonzero a.
        for a in (1, 2, 3, 97, 255):
            assert gf_pow(a, 255) == 1


@settings(max_examples=200)
@given(a=elements, b=elements, c=elements)
def test_property_field_axioms(a, b, c):
    # Commutativity and associativity of multiplication.
    assert gf_mul(a, b) == gf_mul(b, a)
    assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))
    # Distributivity over XOR (the field's addition).
    assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


class TestVectorOps:
    def test_mul_bytes_matches_scalar(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, 257, dtype=np.uint8)
        for coef in (0, 1, 2, 0x1D, 255):
            expected = np.array([gf_mul(coef, int(x)) for x in data], np.uint8)
            assert np.array_equal(gf_mul_bytes(coef, data), expected)

    def test_mul_bytes_invalid_coef(self):
        with pytest.raises(ConfigError):
            gf_mul_bytes(256, np.zeros(4, np.uint8))

    def test_mul_accumulate_matches_mul_bytes(self):
        # One coefficient, one row: the row kernel is gf_mul_bytes.
        rng = np.random.default_rng(1)
        data = rng.integers(0, 256, 513, dtype=np.uint8)
        for coef in (0, 1, 7, 200):
            out = gf_matmul_rows(np.array([[coef]], np.uint8), [data])
            assert np.array_equal(out[0], gf_mul_bytes(coef, data))

    def test_mul_accumulate_accumulates(self):
        # The same row under the same coefficient twice: x ^ x == 0, in
        # every lane of a block and in the block after it.
        rng = np.random.default_rng(2)
        data = rng.integers(0, 256, 64, dtype=np.uint8)
        coefs = rng.integers(1, 256, (11, 1), dtype=np.uint8)
        out = gf_matmul_rows(np.hstack([coefs, coefs]), [data, data])
        assert out.shape == (11, 64) and not out.any()


ROW_FORMS = {
    "array": lambda data: data,
    "readonly": lambda data: [
        np.frombuffer(row.tobytes(), dtype=np.uint8) for row in data
    ],
    # Rows that are strided views: every other byte of a wider buffer.
    "strided": lambda data: list(np.repeat(data, 2, axis=1)[:, ::2]),
    # A (k, n) view at an offset into wider rows: not one contiguous block.
    "view": lambda data: np.hstack([data, data])[:, data.shape[1] :],
}


@settings(max_examples=150, deadline=None)
@given(
    r=st.integers(1, 20),
    k=st.integers(1, 40),
    n=st.sampled_from([0, 1, 2, 37, 64, 101]),
    zero_row=st.integers(0, 19),
    zero_col=st.integers(0, 39),
    form=st.sampled_from(sorted(ROW_FORMS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_row_kernel_matches_dense_reference(
    r, k, n, zero_row, zero_col, form, seed
):
    """Every lane width, block remainder, row layout and chunk parity gives
    the bytes of the dense reference product."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 256, (r, k), dtype=np.uint8)
    matrix[zero_row % r] = 0
    matrix[:, zero_col % k] = 0
    data = rng.integers(0, 256, (k, n), dtype=np.uint8)
    rows = ROW_FORMS[form](data)
    if form == "readonly":
        assert not rows[0].flags.writeable
    if form == "strided" and n > 1:
        assert not rows[0].flags.c_contiguous
    out = gf_matmul_rows(matrix, rows)
    assert out.dtype == np.uint8 and out.shape == (r, n)
    assert np.array_equal(out, gf_matmul(matrix, data))


@pytest.mark.parametrize("n", [_TILE - 1, _TILE + 5, 2 * _TILE])
def test_row_kernel_tiles_long_rows(n):
    rng = np.random.default_rng(n)
    matrix = rng.integers(0, 256, (3, 5), dtype=np.uint8)
    data = rng.integers(0, 256, (5, n), dtype=np.uint8)
    assert np.array_equal(
        gf_matmul_rows(matrix, data), gf_matmul(matrix, data)
    )


@settings(max_examples=100, deadline=None)
@given(
    r=st.integers(1, 17),
    k=st.integers(1, 12),
    n=st.sampled_from([1, 3, 37, 101, 255]),
    form=st.sampled_from(sorted(ROW_FORMS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_table_apply_matches_dense_reference(r, k, n, form, seed):
    """Tables built once and applied twice: 1/2/4/8-lane blocks and the
    blocks after the first, odd lengths, strided and view rows."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 256, (r, k), dtype=np.uint8)
    data = rng.integers(0, 256, (k, n), dtype=np.uint8)
    blocks = gf_lane_tables(matrix)
    assert [lanes for lanes, _ in blocks] == [min(8, r - f) for f in range(0, r, 8)]
    want = gf_matmul(matrix, data)
    assert np.array_equal(gf_apply_tables(blocks, ROW_FORMS[form](data)), want)
    assert np.array_equal(gf_apply_tables(blocks, data), want)


@pytest.mark.parametrize(
    "case, k, m, chunk_bytes, seed",
    [("mds_32_8_16KiB_4_erasures", 32, 8, 16 * KiB, 1),
     ("mds_12_11_64B_10_erasures", 12, 11, 64, 3)],
)
def test_reed_solomon_encodes_from_tables_built_at_construction(
    monkeypatch, case, k, m, chunk_bytes, seed
):
    code = ReedSolomonCode(k, m)

    def rebuilt(matrix):
        raise AssertionError("lane tables built after construction")

    monkeypatch.setattr(gf256, "gf_lane_tables", rebuilt)
    monkeypatch.setattr(reed_solomon, "gf_lane_tables", rebuilt)
    data = vector_bytes(k * chunk_bytes, seed).reshape(k, chunk_bytes)
    want = json.loads(GOLDEN.read_text())["cases"][case]["parity_sha256"]
    for _ in range(2):
        assert hashlib.sha256(code.encode(data).tobytes()).hexdigest() == want


def test_row_kernel_shape_validation():
    with pytest.raises(ConfigError):
        gf_matmul_rows(np.zeros((2, 3), np.uint8), np.zeros((2, 8), np.uint8))
    with pytest.raises(ConfigError):
        gf_matmul_rows(np.zeros((2, 0), np.uint8), [])


class TestMatrixOps:
    def test_matmul_identity(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 256, (5, 5), dtype=np.uint8)
        eye = np.eye(5, dtype=np.uint8)
        assert np.array_equal(gf_matmul(a, eye), a)
        assert np.array_equal(gf_matmul(eye, a), a)

    def test_mat_inv_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            while True:
                m = rng.integers(0, 256, (6, 6), dtype=np.uint8)
                try:
                    inv = gf_mat_inv(m)
                    break
                except ConfigError:
                    continue
            assert np.array_equal(
                gf_matmul(m, inv), np.eye(6, dtype=np.uint8)
            )

    def test_mat_inv_swaps_in_a_pivot_below_a_zero_diagonal(self):
        m = np.array([[0, 3, 1], [5, 7, 0], [0, 0, 9]], dtype=np.uint8)
        inv = gf_mat_inv(m)
        assert np.array_equal(gf_matmul(m, inv), np.eye(3, dtype=np.uint8))
        assert np.array_equal(gf_matmul(inv, m), np.eye(3, dtype=np.uint8))

    def test_singular_rejected(self):
        m = np.zeros((3, 3), dtype=np.uint8)
        with pytest.raises(ConfigError):
            gf_mat_inv(m)

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            gf_matmul(np.zeros((2, 3), np.uint8), np.zeros((2, 3), np.uint8))
        with pytest.raises(ConfigError):
            gf_mat_inv(np.zeros((2, 3), np.uint8))
