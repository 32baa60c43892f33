"""NumPy-backed bitmap used for SDR per-packet and chunk completion tracking.

A single :class:`Bitmap` instance backs either the SDR *backend* per-packet
bitmap or the *frontend* chunk bitmap (Section 3.2.1 of the paper).  The
receive data path sets bits as packets land; the reliability layer polls the
frontend bitmap via ``recv_bitmap_get``.

The implementation keeps a ``uint8`` array, one byte per 8 bits, matching the
wire encoding used by the ACK format (the receiver ships slices of this array
inside selective ACKs), plus a running popcount so that ``count()`` and
``all_set()`` are O(1) in the datapath hot loop.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

_BIT_MASKS = np.left_shift(np.uint8(1), np.arange(8, dtype=np.uint8))


def mask_bits(mask: int) -> Iterator[int]:
    """The set bit positions of the integer ``mask``, in ascending order.

    For chunk sets kept as Python integers (bit ``i`` = chunk ``i``), which
    intersect and test for emptiness at scalar cost: the SR sender's
    outstanding set and :meth:`repro.reliability.messages.Ack.acked_mask`.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Bitmap:
    """Fixed-size bitmap with O(1) set/test and O(1) full-completion check."""

    __slots__ = ("_bits", "_nbits", "_nset")

    def __init__(self, nbits: int):
        if nbits <= 0:
            raise ValueError(f"bitmap must have at least 1 bit, got {nbits}")
        self._nbits = int(nbits)
        self._bits = np.zeros((self._nbits + 7) // 8, dtype=np.uint8)
        self._nset = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_indices(cls, nbits: int, indices: Iterable[int]) -> "Bitmap":
        """Build a bitmap of ``nbits`` with the given ``indices`` set."""
        bm = cls(nbits)
        for i in indices:
            bm.set(i)
        return bm

    @classmethod
    def from_bytes(cls, nbits: int, raw: bytes | np.ndarray) -> "Bitmap":
        """Reconstruct a bitmap from its wire encoding (LSB-first bytes)."""
        bm = cls(nbits)
        buf = np.frombuffer(bytes(raw), dtype=np.uint8)
        if buf.size != bm._bits.size:
            raise ValueError(
                f"need {bm._bits.size} bytes for {nbits} bits, got {buf.size}"
            )
        bm._bits[:] = buf
        # Mask out padding bits beyond nbits so nset stays consistent.
        tail = nbits % 8
        if tail:
            bm._bits[-1] &= np.uint8((1 << tail) - 1)
        bm._nset = int(np.unpackbits(bm._bits, bitorder="little").sum())
        return bm

    # -- core ops -------------------------------------------------------------

    def set(self, index: int) -> bool:
        """Set bit ``index``; return True if it transitioned 0 -> 1."""
        self._check(index)
        byte, mask = index >> 3, _BIT_MASKS[index & 7]
        if self._bits[byte] & mask:
            return False
        self._bits[byte] |= mask
        self._nset += 1
        return True

    def set_many(self, indices: np.ndarray) -> int:
        """Set a batch of *unique* bit indices; return how many were new.

        The fluid fast path applies a whole chunk's worth of packet
        arrivals in one call instead of per-packet ``set`` loops.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return 0
        if idx.min() < 0 or idx.max() >= self._nbits:
            raise IndexError(f"bit index out of range [0, {self._nbits})")
        unpacked = np.unpackbits(self._bits, bitorder="little")
        newly = int((unpacked[idx] == 0).sum())
        if newly:
            unpacked[idx] = 1
            self._bits[:] = np.packbits(unpacked, bitorder="little")
            self._nset += newly
        return newly

    def clear(self, index: int) -> bool:
        """Clear bit ``index``; return True if it transitioned 1 -> 0."""
        self._check(index)
        byte, mask = index >> 3, _BIT_MASKS[index & 7]
        if not (self._bits[byte] & mask):
            return False
        self._bits[byte] &= np.uint8(~mask)
        self._nset -= 1
        return True

    def test(self, index: int) -> bool:
        """Return whether bit ``index`` is set."""
        self._check(index)
        return bool(self._bits[index >> 3] & _BIT_MASKS[index & 7])

    def reset(self) -> None:
        """Clear all bits (message-slot reuse on repost, Section 5.4.1)."""
        self._bits[:] = 0
        self._nset = 0

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return self._nbits

    def count(self) -> int:
        """Number of set bits."""
        return self._nset

    def all_set(self) -> bool:
        """True when every bit in the bitmap is set (message complete)."""
        return self._nset == self._nbits

    def any_set(self) -> bool:
        """True when at least one bit is set (used to arm the EC FTO)."""
        return self._nset > 0

    def missing(self) -> np.ndarray:
        """Indices of clear bits -- the chunks a SR sender must retransmit."""
        unpacked = np.unpackbits(self._bits, bitorder="little")[: self._nbits]
        return np.flatnonzero(unpacked == 0)

    def set_indices(self) -> np.ndarray:
        """Indices of set bits."""
        unpacked = np.unpackbits(self._bits, bitorder="little")[: self._nbits]
        return np.flatnonzero(unpacked == 1)

    def cumulative(self) -> int:
        """Length of the fully-received prefix.

        This is the paper's *cumulative ACK*: the highest chunk sequence
        number for which all previous chunks have been received (exclusive
        upper bound, i.e. number of leading set bits).
        """
        if self._nset == self._nbits:
            return self._nbits
        # Not full, and padding bits are never set: some byte has a clear bit.
        raw = self._bits.tobytes()
        full = len(raw) - len(raw.lstrip(b"\xff"))
        byte = raw[full]
        return 8 * full + (~byte & (byte + 1)).bit_length() - 1

    def as_array(self) -> np.ndarray:
        """Boolean view of the bitmap (copy), index i == bit i."""
        return np.unpackbits(self._bits, bitorder="little")[: self._nbits].astype(bool)

    def to_bytes(self, start_bit: int = 0, max_bytes: int | None = None) -> bytes:
        """Wire encoding starting at byte containing ``start_bit``.

        Used by the selective-ACK encoder to ship "a portion of the bitmap
        (as much as fits in the ACK payload), starting from the cumulative
        ACK" (Section 4.1.1).
        """
        if start_bit < 0 or start_bit > self._nbits:
            raise IndexError(f"start_bit {start_bit} out of range")
        first = start_bit >> 3
        window = self._bits[first:]
        if max_bytes is not None:
            window = window[:max_bytes]
        return window.tobytes()

    def __iter__(self) -> Iterator[bool]:
        return iter(self.as_array().tolist())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Bitmap(nbits={self._nbits}, set={self._nset})"

    def _check(self, index: int) -> None:
        if not 0 <= index < self._nbits:
            raise IndexError(f"bit {index} out of range [0, {self._nbits})")
