"""XOR modulo-group erasure code (RAID-4-style striped parity).

The paper's "simple XOR-based code, in which the i'th parity block (out of
m) is computed as the XOR of all k data blocks whose indices satisfy
``j mod m == i``" (Section 5.1.1).  Each modulo group therefore contains
``n = k/m + 1`` blocks (k/m data + 1 parity) and tolerates the loss of at
most one block -- the weaker protection that makes XOR fall back to SR at
~1e-3 drop rates where MDS survives past 1e-2 (Figure 11, right).

Encoding is ``k`` plain XOR passes over chunk bytes, versus Reed-Solomon's
``m * k`` GF multiply-accumulate passes: the compute advantage the paper
exploits with AVX-512 appears here as fewer (and cheaper) NumPy passes.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError, DecodeFailure
from repro.ec.codec import ErasureCode, register_codec


class XorCode(ErasureCode):
    """(k, m) striped XOR parity: one loss tolerated per modulo group."""

    def __init__(self, k: int, m: int):
        super().__init__(k, m)
        if k % m != 0:
            raise ConfigError(
                f"XOR modulo-group code needs m | k, got k={k}, m={m}"
            )
        #: Data indices of each modulo group (parity i covers group i).
        self.groups = [list(range(i, k, m)) for i in range(m)]

    # -- encode ---------------------------------------------------------------------

    def _encode(self, data: np.ndarray) -> np.ndarray:
        chunk_bytes = data.shape[1]
        parity = np.zeros((self.m, chunk_bytes), dtype=np.uint8)
        for i, members in enumerate(self.groups):
            acc = parity[i]
            for j in members:
                acc ^= data[j]
        return parity

    # -- decode ---------------------------------------------------------------------

    def _recoverable(self, present: np.ndarray) -> bool:
        for i, members in enumerate(self.groups):
            missing_data = sum(1 for j in members if not present[j])
            if missing_data == 0:
                continue  # parity loss alone is harmless
            if missing_data > 1 or not present[self.k + i]:
                return False
        return True

    def _decode(self, chunks: dict[int, np.ndarray], chunk_bytes: int) -> np.ndarray:
        out = np.zeros((self.k, chunk_bytes), dtype=np.uint8)
        failed: list[int] = []
        for i, members in enumerate(self.groups):
            missing = [j for j in members if j not in chunks]
            for j in members:
                if j in chunks:
                    out[j] = chunks[j]
            if not missing:
                continue
            parity_idx = self.k + i
            if len(missing) > 1 or parity_idx not in chunks:
                failed.extend(missing)
                continue
            # Single missing member: XOR parity with the surviving members.
            acc = np.asarray(chunks[parity_idx], dtype=np.uint8).copy()
            for j in members:
                if j != missing[0]:
                    acc ^= chunks[j]
            out[missing[0]] = acc
        if failed:
            raise DecodeFailure(
                f"unrecoverable data chunks {failed}", tuple(failed)
            )
        return out


register_codec("xor", XorCode)
