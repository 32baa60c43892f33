"""GF(2^8) arithmetic with NumPy-vectorized table lookups.

The field is GF(256) with the primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D), the field used by ISA-L's
Reed-Solomon and most storage erasure codes.  Hot paths avoid Python loops:

* ``gf_matmul_rows(matrix, rows)`` -- the one bulk kernel under every
  Reed-Solomon encode and decode: ``matrix (r x k)`` times k byte rows.  Per
  block of <= 8 matrix rows it builds k 256-entry tables whose entries pack
  the block's products into the 1/2/4/8 byte lanes of one word, gathers once
  per data row, XOR-accumulates words and splits the lanes at the end.
* ``gf_mul_bytes(coef, data)`` -- multiply a byte vector by a scalar via a
  single 256-entry lookup table gather (the NumPy analogue of the
  ``GF_MUL`` SIMD shuffle in ISA-L).
* ``gf_matmul`` / ``gf_mat_inv`` -- dense GF matrix algebra used to build
  systematic generator matrices and decoding matrices, and the reference the
  tests compare the row kernel against.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError

_PRIMITIVE_POLY = 0x11D

# -- log / antilog tables ------------------------------------------------------


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _PRIMITIVE_POLY
    exp[255:510] = exp[:255]  # wraparound so exp[log a + log b] never mods
    # Full 256x256 product table: MUL[a, b] = a * b in GF(256).
    a = np.arange(256)
    la = log[a][:, None]
    lb = log[a][None, :]
    mul = exp[(la + lb) % 255].astype(np.uint8)
    mul[0, :] = 0
    mul[:, 0] = 0
    return exp, log, mul


_EXP, _LOG, _MUL = _build_tables()


def gf_mul(a, b):
    """Elementwise GF(256) product of scalars or uint8 arrays."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    out = _MUL[a.astype(np.intp), b.astype(np.intp)]
    if out.ndim == 0:
        return int(out)
    return out


def gf_mul_bytes(coef: int, data: np.ndarray) -> np.ndarray:
    """Multiply a uint8 vector by scalar ``coef`` (one table gather)."""
    if not 0 <= coef < 256:
        raise ConfigError(f"coefficient must be a GF(256) element, got {coef}")
    if coef == 0:
        return np.zeros_like(data)
    if coef == 1:
        return data.copy()
    return _MUL[coef].take(data)


# -- packed-lane row kernel (every bulk multiply) ---------------------------------
#
# NumPy's fancy-index gather runs ~20x slower than a plain XOR pass, so the
# bulk path gathers once per *data row*, not once per coefficient: up to
# eight matrix rows share a 256-entry table per data row whose entries pack
# the products ``c_0j*b .. c_7j*b`` into the byte lanes of one unsigned word
# -- the NumPy analogue of ISA-L's multi-destination dot products
# (``gf_Nvect_dot_prod``), which read each source byte once for N parity
# rows.  Lanes are packed and split through uint8 views only, so lane order
# never depends on host endianness.

#: Word type holding ``w`` one-byte lanes.
_LANE_WORD = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}
#: Bytes of each row processed per pass: the word accumulator (8x this) and
#: the gather scratch stay cache resident however long the chunks are.
_TILE = 16 * 1024


def gf_lane_tables(matrix: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``matrix (r x k)`` as one ``(lanes, tables)`` pair per block of <= 8
    rows, ``tables`` ``(k, 256)`` words whose byte lanes hold the block's
    products with each byte value: built once for a fixed matrix."""
    matrix = np.asarray(matrix, dtype=np.uint8)
    if matrix.ndim != 2 or not matrix.shape[1]:
        raise ConfigError(f"need an r x k matrix with k > 0, got {matrix.shape}")
    blocks = []
    for first in range(0, matrix.shape[0], 8):
        block = matrix[first : first + 8]
        lanes = len(block)
        width = next(w for w in _LANE_WORD if w >= lanes)
        packed = np.zeros((matrix.shape[1], 256, width), dtype=np.uint8)
        packed[:, :, :lanes] = _MUL[block.T].transpose(0, 2, 1)
        blocks.append((lanes, packed.view(_LANE_WORD[width])[:, :, 0]))
    return blocks


def gf_apply_tables(blocks: list[tuple[int, np.ndarray]], rows) -> np.ndarray:
    """The matrix :func:`gf_lane_tables` built ``blocks`` from, times ``rows``.

    ``rows`` is a ``(k, n)`` uint8 array or any sequence of k equal-length
    uint8 vectors (views, read-only buffers and strided slices are read in
    place, never stacked): one gather per data row and block.
    """
    if any(tables.shape[0] != len(rows) for _, tables in blocks) or not len(rows):
        raise ConfigError(f"tables do not take {len(rows)} rows")
    n = len(rows[0])
    out = np.empty((sum(lanes for lanes, _ in blocks), n), dtype=np.uint8)
    first = 0
    for lanes, tables in blocks:
        for lo in range(0, n, _TILE):
            hi = lo + _TILE
            acc = tables[0].take(rows[0][lo:hi])
            for j in range(1, len(rows)):
                acc ^= tables[j].take(rows[j][lo:hi])
            out[first : first + lanes, lo:hi] = (
                acc.view(np.uint8).reshape(-1, tables.itemsize).T[:lanes]
            )
        first += lanes
    return out


def gf_matmul_rows(matrix: np.ndarray, rows) -> np.ndarray:
    """``matrix (r x k) . rows`` over GF(256): k byte rows in, r byte rows out,
    the same bytes as ``gf_matmul(matrix, stack(rows))``."""
    return gf_apply_tables(gf_lane_tables(matrix), rows)


def gf_pow(a: int, n: int) -> int:
    """``a ** n`` in GF(256)."""
    if not 0 <= a < 256:
        raise ConfigError(f"base must be a GF(256) element, got {a}")
    if a == 0:
        return 0 if n > 0 else 1
    return int(_EXP[(int(_LOG[a]) * (n % 255)) % 255])


def gf_inv(a: int) -> int:
    """Multiplicative inverse in GF(256)."""
    if not 0 < a < 256:
        raise ConfigError(f"cannot invert {a} in GF(256)")
    return int(_EXP[(255 - int(_LOG[a])) % 255])


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """GF(256) matrix product (uint8 matrices)."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ConfigError(f"incompatible shapes {a.shape} x {b.shape}")
    # products[i, k, j] = a[i, k] * b[k, j]; XOR-reduce over k.
    products = _MUL[a[:, :, None].astype(np.intp), b[None, :, :].astype(np.intp)]
    return np.bitwise_xor.reduce(products, axis=1)


def gf_mat_inv(m: np.ndarray) -> np.ndarray:
    """Invert a square GF(256) matrix by Gauss-Jordan elimination.

    Raises :class:`ConfigError` if the matrix is singular (which for a
    decode matrix means the erasure pattern is unrecoverable).
    """
    m = np.asarray(m, dtype=np.uint8)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"matrix must be square, got {m.shape}")
    n = m.shape[0]
    aug = np.concatenate([m.copy(), np.eye(n, dtype=np.uint8)], axis=1)
    for col in range(n):
        pivot = -1
        for row in range(col, n):
            if aug[row, col] != 0:
                pivot = row
                break
        if pivot < 0:
            raise ConfigError("matrix is singular over GF(256)")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        inv_p = gf_inv(int(aug[col, col]))
        aug[col] = _MUL[inv_p].take(aug[col])
        # Eliminate column in all other rows (vectorized over rows).
        factors = aug[:, col].copy()
        factors[col] = 0
        nz = np.flatnonzero(factors)
        if nz.size:
            aug[nz] ^= _MUL[factors[nz][:, None].astype(np.intp),
                            aug[col][None, :].astype(np.intp)]
    return aug[:, n:].copy()
