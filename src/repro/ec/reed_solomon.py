"""Systematic Reed-Solomon (MDS) erasure code over GF(256).

Construction follows the ISA-L recipe: start from a ``(k+m) x k``
Vandermonde matrix ``V`` with rows ``[i^0, i^1, ..., i^(k-1)]``, then make it
systematic by right-multiplying with the inverse of its top ``k x k`` block::

    G = V @ inv(V[:k])        # top k rows become the identity

Any ``k`` rows of ``G`` remain linearly independent (the MDS property), so
the decoder can solve the surviving rows for the erased data and recover it
from *any* k of the k+m coded chunks -- the behaviour
``P(recovery) = P(drops <= m)`` that Appendix B models.

The parity block ``P = G[k:]`` is then normalized: column ``j`` is scaled
by ``inv(P[0, j])``, so row 0 is all ones -- as in RAID's P parity and in
ISA-L's ``gf_gen_rs_matrix`` -- and parity 0 is the XOR of the k data
chunks.  The code stays MDS: ``[I; P]`` is MDS exactly when every square
submatrix of ``P`` is nonsingular, and scaling a column by a nonzero element
scales each such determinant by a nonzero factor (every ``P[0, j]`` is
itself a 1 x 1 submatrix, so it is nonzero and invertible).

Encode is one call of the packed-lane row kernel
(:func:`~repro.ec.gf256.gf_apply_tables`) on tables built at construction.
A decode that misses exactly one data chunk while parity 0 arrived -- the
commonest erasure on a lossy link -- is parity 0 XOR the k-1 survivors: no
table, no inverse, no gather.  Every other pattern solves the surviving
rows with one :func:`~repro.ec.gf256.gf_matmul_rows` call, for even and odd
chunk sizes alike.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError, DecodeFailure
from repro.ec.codec import ErasureCode, register_codec
from repro.ec.gf256 import (
    gf_apply_tables, gf_inv, gf_lane_tables, gf_mat_inv, gf_matmul, gf_matmul_rows,
    gf_pow,
)


def _vandermonde(rows: int, cols: int) -> np.ndarray:
    v = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            v[i, j] = gf_pow(i + 1, j)  # bases 1..rows are distinct & nonzero
    return v


class ReedSolomonCode(ErasureCode):
    """MDS (k, m) code: recovers data from any k surviving coded chunks."""

    def __init__(self, k: int, m: int):
        super().__init__(k, m)
        if k + m > 255:
            # The Vandermonde bases 1..k+m must be distinct nonzero GF(256)
            # elements, of which there are only 255.
            raise ConfigError(
                f"Reed-Solomon needs k + m <= 255, got {k + m}"
            )
        v = _vandermonde(k + m, k)
        top_inv = gf_mat_inv(v[:k])
        self.generator = gf_matmul(v, top_inv)
        if not np.array_equal(self.generator[: self.k], np.eye(k, dtype=np.uint8)):
            raise ConfigError("systematic construction failed")
        # Column scaling keeps the code MDS (module docstring) and makes
        # parity 0 the XOR of the data.
        scale = np.diag([gf_inv(int(c)) for c in self.generator[k]]).astype(np.uint8)
        self.generator[k:] = gf_matmul(self.generator[k:], scale)
        #: Parity rows of the generator: parity = P @ data.
        self.parity_matrix = self.generator[k:]
        #: Their lane tables, built once: every encode applies the same rows.
        self._parity_tables = gf_lane_tables(self.parity_matrix)

    # -- encode ---------------------------------------------------------------------

    def _encode(self, data: np.ndarray) -> np.ndarray:
        return gf_apply_tables(self._parity_tables, data)

    # -- decode ---------------------------------------------------------------------

    def _recoverable(self, present: np.ndarray) -> bool:
        return int(present.sum()) >= self.k

    def _decode(self, chunks: dict[int, np.ndarray], chunk_bytes: int) -> np.ndarray:
        if len(chunks) < self.k:
            raise DecodeFailure(
                f"only {len(chunks)} of {self.k} required chunks present"
            )
        out = np.empty((self.k, chunk_bytes), dtype=np.uint8)
        survivors = [r for r in range(self.k) if r in chunks]
        missing = [r for r in range(self.k) if r not in chunks]
        for r in survivors:
            out[r] = chunks[r]
        if not missing:
            return out
        if len(missing) == 1 and self.k in chunks:
            # Parity 0 is the XOR of the data, so the one erased chunk is
            # parity 0 XOR the k-1 survivors: :meth:`_solve` with an all-ones
            # row and inv = [[1]], without tables or gathers.
            out[missing[0]] = chunks[self.k]
            out[missing[0]] = np.bitwise_xor.reduce(out, axis=0)
        else:
            out[missing] = self._solve(out, chunks, survivors, missing)
        return out

    def _solve(
        self, out: np.ndarray, chunks: dict[int, np.ndarray],
        survivors: list[int], missing: list[int],
    ) -> np.ndarray:
        """The erased data rows ``missing`` by the general GF(256) solve, from
        the ``survivors`` rows of ``out`` and the parity in ``chunks``."""
        # Surviving data passes through, so only the e erased rows are solved
        # for.  With M the erased data indices, S the survivors and P the
        # first e surviving parity rows, G[P,S].d_S + G[P,M].d_M = c_P gives
        #   d_M = inv(G[P,M]) . (c_P + G[P,S].d_S)
        # (MDS: G[P,M] is invertible for any such choice), folded into one
        # e x k matrix over the k rows [d_S, c_P].
        parity = sorted(i for i in chunks if i >= self.k)[: len(missing)]
        rows = self.generator[parity]
        inv = gf_mat_inv(rows[:, missing])
        solve = np.concatenate([gf_matmul(inv, rows[:, survivors]), inv], axis=1)
        return gf_matmul_rows(
            solve, [out[r] for r in survivors] + [chunks[i] for i in parity]
        )


register_codec("mds", ReedSolomonCode)
register_codec("rs", ReedSolomonCode)
