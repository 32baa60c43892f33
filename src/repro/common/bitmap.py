"""Bitmap used for SDR per-packet and chunk completion tracking.

A :class:`Bitmap` backs either the SDR *backend* per-packet bitmap or the
*frontend* chunk bitmap (Section 3.2.1 of the paper): the receive data
path sets bits as packets land, and the reliability layer polls the
frontend bitmap via ``recv_bitmap_get``.  The bits are one Python ``int``
(bit ``i`` = index ``i``) whose little-endian bytes are the wire encoding
of the ACK format, so a per-packet ``set`` and an ACK's ``cumulative`` are
integer arithmetic; a running popcount keeps ``count()`` and ``all_set()``
O(1), and the bulk queries unpack through NumPy.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import index as _as_index

import numpy as np


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
    """Fixed-size bitmap with O(1) count and O(1) full-completion check."""

    __slots__ = ("_bits", "_nbits", "_nset")

    def __init__(self, nbits: int):
        if nbits <= 0:
            raise ValueError(f"bitmap must have at least 1 bit, got {nbits}")
        self._nbits = int(nbits)
        self._bits = 0
        self._nset = 0

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
        raw = bytes(raw)
        if len(raw) != bm._nbytes():
            raise ValueError(
                f"need {bm._nbytes()} bytes for {nbits} bits, got {len(raw)}"
            )
        # Padding bits beyond nbits are masked out so nset stays consistent.
        bm._bits = int.from_bytes(raw, "little") & ((1 << bm._nbits) - 1)
        bm._nset = bm._bits.bit_count()
        return bm

    def set(self, index: int) -> bool:
        """Set bit ``index``; return True if it transitioned 0 -> 1."""
        # Once per packet: an in-range ``int`` skips the checked ``_bit``.
        plain = index.__class__ is int and 0 <= index < self._nbits
        bit = 1 << index if plain else self._bit(index)
        if self._bits & bit:
            return False
        self._bits |= bit
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
        flags = np.zeros(self._nbits, dtype=np.uint8)
        flags[idx] = 1
        packed = np.packbits(flags, bitorder="little").tobytes()
        new = int.from_bytes(packed, "little") & ~self._bits
        newly = new.bit_count()
        self._bits |= new
        self._nset += newly
        return newly

    def clear(self, index: int) -> bool:
        """Clear bit ``index``; return True if it transitioned 1 -> 0."""
        bit = self._bit(index)
        if not self._bits & bit:
            return False
        self._bits ^= bit
        self._nset -= 1
        return True

    def test(self, index: int) -> bool:
        """Return whether bit ``index`` is set."""
        return bool(self._bits & self._bit(index))

    def reset(self) -> None:
        """Clear all bits (message-slot reuse on repost, Section 5.4.1)."""
        self._bits = self._nset = 0

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
        return np.flatnonzero(self._unpacked() == 0)

    def set_indices(self) -> np.ndarray:
        """Indices of set bits."""
        return np.flatnonzero(self._unpacked())

    def cumulative(self) -> int:
        """Length of the fully-received prefix.

        This is the paper's *cumulative ACK*: the highest chunk sequence
        number for which all previous chunks have been received (exclusive
        upper bound, i.e. number of leading set bits).  It is the lowest
        clear bit, which is ``nbits`` for a full map: padding is never set.
        """
        return (~self._bits & (self._bits + 1)).bit_length() - 1

    def as_array(self) -> np.ndarray:
        """Boolean view of the bitmap (copy), index i == bit i."""
        return self._unpacked().view(bool)

    def to_bytes(self, start_bit: int = 0, max_bytes: int | None = None) -> bytes:
        """Wire encoding starting at byte containing ``start_bit``.

        Used by the selective-ACK encoder to ship "a portion of the bitmap
        (as much as fits in the ACK payload), starting from the cumulative
        ACK" (Section 4.1.1).
        """
        if start_bit < 0 or start_bit > self._nbits:
            raise IndexError(f"start_bit {start_bit} out of range")
        window = self._bits.to_bytes(self._nbytes(), "little")[start_bit >> 3 :]
        return window if max_bytes is None else window[:max_bytes]

    def __iter__(self) -> Iterator[bool]:
        return iter(self.as_array().tolist())

    def _bit(self, index: int) -> int:
        """The mask of bit ``index``, range-checked."""
        if index.__class__ is not int:
            index = _as_index(index)  # 1 << np.int64(70) would wrap
        if not 0 <= index < self._nbits:
            raise IndexError(f"bit {index} out of range [0, {self._nbits})")
        return 1 << index

    def _nbytes(self) -> int:
        return (self._nbits + 7) // 8

    def _unpacked(self) -> np.ndarray:
        """One ``uint8`` 0/1 per bit, index i == bit i (a fresh array)."""
        raw = np.frombuffer(self._bits.to_bytes(self._nbytes(), "little"), np.uint8)
        return np.unpackbits(raw, count=self._nbits, bitorder="little")
