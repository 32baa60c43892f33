"""2-D Reed-Solomon product code with iterative row/column peeling.

Data chunks form a ``k_rows x k_cols`` grid; each row is extended with
``m_cols`` Reed-Solomon parity chunks and each column with ``m_rows`` --
the 2-D layout the Animica DA spec uses to harden availability sampling
(no parity-of-parity corner, matching its lambda=2 construction).

The decoder *peels*: alternate a row pass (every row with >= k_cols of its
k_cols + m_cols symbols decodes) and a column pass until a fixpoint.
Because a recovered row feeds the next column pass and vice versa, erasure
patterns unrecoverable by either axis alone -- e.g. two losses in one row
*and* two in one column sharing a corner -- still decode, which is exactly
the robustness margin the sampling reliability mode leans on.

Coded-chunk index layout (``k = k_rows * k_cols`` data chunks first)::

    data      (r, c)  -> r * k_cols + c
    row par   (r, j)  -> k + r * m_cols + j
    col par   (i, c)  -> k + k_rows * m_cols + i * k_cols + c
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import ConfigError, DecodeFailure
from repro.ec.codec import ErasureCode, register_codec
from repro.ec.reed_solomon import ReedSolomonCode


class Rs2dCode(ErasureCode):
    """Row+column RS parity over a ``k_rows x k_cols`` data grid."""

    # Per-axis RS codes carry the GF(256) bound; the product may exceed it.
    max_total_chunks = None

    def __init__(self, k_rows: int, k_cols: int, m_rows: int, m_cols: int):
        if k_rows <= 0 or k_cols <= 0:
            raise ConfigError(
                f"need k_rows, k_cols > 0, got {k_rows} x {k_cols}"
            )
        if m_rows <= 0 or m_cols <= 0:
            raise ConfigError(
                f"need m_rows, m_cols > 0, got {m_rows} x {m_cols}"
            )
        k = k_rows * k_cols
        m = k_rows * m_cols + m_rows * k_cols
        super().__init__(k, m)
        self.k_rows = k_rows
        self.k_cols = k_cols
        self.m_rows = m_rows
        self.m_cols = m_cols
        self.row_code = ReedSolomonCode(k_cols, m_cols)
        self.col_code = ReedSolomonCode(k_rows, m_rows)

    # -- index helpers ----------------------------------------------------------------

    def data_index(self, r: int, c: int) -> int:
        return r * self.k_cols + c

    def row_parity_index(self, r: int, j: int) -> int:
        return self.k + r * self.m_cols + j

    def col_parity_index(self, i: int, c: int) -> int:
        return self.k + self.k_rows * self.m_cols + i * self.k_cols + c

    # -- encode -----------------------------------------------------------------------

    def _encode(self, data: np.ndarray) -> np.ndarray:
        chunk_bytes = data.shape[1]
        grid = data.reshape(self.k_rows, self.k_cols, chunk_bytes)
        parity = np.zeros((self.m, chunk_bytes), dtype=np.uint8)
        for r in range(self.k_rows):
            rp = self.row_code.encode(grid[r])
            base = r * self.m_cols
            parity[base : base + self.m_cols] = rp
        col_base = self.k_rows * self.m_cols
        for c in range(self.k_cols):
            cp = self.col_code.encode(np.ascontiguousarray(grid[:, c]))
            for i in range(self.m_rows):
                parity[col_base + i * self.k_cols + c] = cp[i]
        return parity

    # -- peeling ----------------------------------------------------------------------

    def _peel_presence(self, present: np.ndarray) -> np.ndarray:
        """Fixpoint of alternating row/column recovery on a presence mask.

        Only *data* presence is updated (parity is never regenerated), which
        matches :meth:`_decode` exactly: ``recoverable`` is true iff the real
        decode would succeed.
        """
        present = present.astype(bool).copy()
        progress = True
        while progress:
            progress = False
            for r in range(self.k_rows):
                row = [self.data_index(r, c) for c in range(self.k_cols)]
                if present[row].all():
                    continue
                par = [self.row_parity_index(r, j) for j in range(self.m_cols)]
                if present[row].sum() + present[par].sum() >= self.k_cols:
                    present[row] = True
                    progress = True
            for c in range(self.k_cols):
                col = [self.data_index(r, c) for r in range(self.k_rows)]
                if present[col].all():
                    continue
                par = [self.col_parity_index(i, c) for i in range(self.m_rows)]
                if present[col].sum() + present[par].sum() >= self.k_rows:
                    present[col] = True
                    progress = True
        return present

    def _recoverable(self, present: np.ndarray) -> bool:
        return bool(self._peel_presence(present)[: self.k].all())

    # -- decode -----------------------------------------------------------------------

    def _decode(self, chunks: dict[int, np.ndarray], chunk_bytes: int) -> np.ndarray:
        out = np.zeros((self.k, chunk_bytes), dtype=np.uint8)
        have = np.zeros(self.k, dtype=bool)
        for idx, chunk in chunks.items():
            if idx < self.k:
                out[idx] = chunk
                have[idx] = True
        progress = True
        while progress and not have.all():
            progress = False
            for r in range(self.k_rows):
                if self._peel_row(r, out, have, chunks, chunk_bytes):
                    progress = True
            for c in range(self.k_cols):
                if self._peel_col(c, out, have, chunks, chunk_bytes):
                    progress = True
        if not have.all():
            failed = tuple(int(i) for i in np.flatnonzero(~have))
            raise DecodeFailure(
                f"2-D peel stalled with data chunks {list(failed)} missing",
                failed,
            )
        return out

    def _peel_row(self, r, out, have, chunks, chunk_bytes) -> bool:
        """Decode row ``r`` via its RS(k_cols, m_cols) code if possible."""
        row = [self.data_index(r, c) for c in range(self.k_cols)]
        if have[row].all():
            return False
        avail: dict[int, np.ndarray] = {
            c: out[row[c]] for c in range(self.k_cols) if have[row[c]]
        }
        for j in range(self.m_cols):
            par = chunks.get(self.row_parity_index(r, j))
            if par is not None:
                avail[self.k_cols + j] = np.asarray(par, dtype=np.uint8)
        if len(avail) < self.k_cols:
            return False
        decoded = self.row_code.decode(avail)
        for c in range(self.k_cols):
            if not have[row[c]]:
                out[row[c]] = decoded[c]
                have[row[c]] = True
        return True

    def _peel_col(self, c, out, have, chunks, chunk_bytes) -> bool:
        """Decode column ``c`` via its RS(k_rows, m_rows) code if possible."""
        col = [self.data_index(r, c) for r in range(self.k_rows)]
        if have[col].all():
            return False
        avail: dict[int, np.ndarray] = {
            r: out[col[r]] for r in range(self.k_rows) if have[col[r]]
        }
        for i in range(self.m_rows):
            par = chunks.get(self.col_parity_index(i, c))
            if par is not None:
                avail[self.k_rows + i] = np.asarray(par, dtype=np.uint8)
        if len(avail) < self.k_rows:
            return False
        decoded = self.col_code.decode(avail)
        for r in range(self.k_rows):
            if not have[col[r]]:
                out[col[r]] = decoded[r]
                have[col[r]] = True
        return True


def _rs2d_factory(k: int, m: int) -> Rs2dCode:
    """Build a square 2-D code from flat (k, m) registry parameters.

    ``k`` must be a perfect square ``s^2`` (the grid) and ``m`` divisible by
    ``2s`` (split evenly between row and column parity) -- e.g.
    ``get_codec("rs2d", 16, 8)`` is a 4x4 grid with one parity chunk per
    row and per column.
    """
    if k <= 0 or m <= 0:
        raise ConfigError(f"need k > 0 and m > 0, got k={k}, m={m}")
    s = math.isqrt(k)
    if s * s != k:
        raise ConfigError(
            f"rs2d needs a square data grid (k a perfect square), got k={k}"
        )
    if m % (2 * s) != 0:
        raise ConfigError(
            f"rs2d needs m divisible by 2*sqrt(k) = {2 * s}, got m={m}"
        )
    per_axis = m // (2 * s)
    return Rs2dCode(s, s, per_axis, per_axis)


register_codec("rs2d", _rs2d_factory)
