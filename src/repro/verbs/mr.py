"""Memory regions, the NULL mkey, and the indirect memory key table.

Three kinds of placement target exist in the simulated NIC:

* :class:`MemoryRegion` -- a registered user buffer.  In *payload mode* it
  owns a ``bytearray`` and incoming RDMA Writes copy real bytes (used by
  correctness tests and the erasure-coding end-to-end path).  In *sized mode*
  (``data=None``) only lengths are tracked, which keeps multi-gigabyte
  benchmark runs cheap -- the paper's DPA result is payload-independent.
* :class:`NullMemoryRegion` -- the ``ibv_alloc_null_mr`` target: writes are
  discarded but still generate completions, which is stage one of the
  paper's late-packet protection (Section 3.3).
* :class:`IndirectMkeyTable` -- the zero-based root memory key of Figure 5:
  message ``i`` of a QP with max message size ``M`` targets offset range
  ``[i*M, i*M + M)``; each slot points at a user MR (after ``recv_post``) or
  at the NULL mkey (after completion).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.common.errors import ConfigError, ResourceError

_mkey_counter = itertools.count(1)


class MemoryRegion:
    """A registered buffer addressable by rkey from the wire."""

    def __init__(self, length: int, *, data: bytearray | None = None, name: str = ""):
        if length <= 0:
            raise ConfigError(f"MR length must be > 0, got {length}")
        if data is not None and len(data) != length:
            raise ConfigError(
                f"data length {len(data)} != declared length {length}"
            )
        self.length = int(length)
        self.data = data
        self.name = name
        self.lkey = next(_mkey_counter)
        self.rkey = self.lkey
        self.bytes_written = 0
        self.write_count = 0

    @property
    def payload_mode(self) -> bool:
        return self.data is not None

    def write(self, offset: int, length: int, payload: bytes | None) -> None:
        """Apply an inbound RDMA Write at ``offset``."""
        if offset < 0 or offset + length > self.length:
            raise ResourceError(
                f"write [{offset}, {offset + length}) exceeds MR "
                f"{self.name or self.rkey} of length {self.length}"
            )
        if self.data is not None and payload is not None:
            self.data[offset : offset + length] = payload
        self.bytes_written += length
        self.write_count += 1


class NullMemoryRegion(MemoryRegion):
    """Write sink that discards payloads but still yields completions."""

    def __init__(self):
        # Unbounded: any offset is acceptable and ignored.
        super().__init__(length=1, name="null-mr")
        self.length = 0  # sentinel: bounds are not enforced

    def write(self, offset: int, length: int, payload: bytes | None) -> None:
        self.bytes_written += length
        self.write_count += 1


@dataclass
class _Slot:
    """One entry of the indirect table: target MR + base offset within it."""

    mr: MemoryRegion
    base_offset: int = 0


class IndirectMkeyTable:
    """Zero-based root mkey mapping message slots to user buffers (Fig. 5)."""

    def __init__(self, num_slots: int, slot_bytes: int):
        if num_slots <= 0:
            raise ConfigError(f"need >= 1 slot, got {num_slots}")
        if slot_bytes <= 0:
            raise ConfigError(f"slot size must be > 0, got {slot_bytes}")
        self.num_slots = int(num_slots)
        self.slot_bytes = int(slot_bytes)
        self.null_mr = NullMemoryRegion()
        self._slots: list[_Slot] = [
            _Slot(mr=self.null_mr) for _ in range(self.num_slots)
        ]
        self.rkey = next(_mkey_counter)

    def bind(self, slot: int, mr: MemoryRegion, base_offset: int = 0) -> None:
        """Point slot ``slot`` at user buffer ``mr`` (post-receive path)."""
        self._check_slot(slot)
        self._slots[slot] = _Slot(mr=mr, base_offset=base_offset)

    def invalidate(self, slot: int) -> None:
        """Point slot ``slot`` back at the NULL mkey (message completion)."""
        self._check_slot(slot)
        self._slots[slot] = _Slot(mr=self.null_mr)

    def resolve(self, offset: int) -> tuple[MemoryRegion, int, int]:
        """Translate a root-mkey byte ``offset`` to (MR, MR-offset, slot)."""
        if offset < 0:
            raise ResourceError(f"negative root offset {offset}")
        slot = offset // self.slot_bytes
        if slot >= self.num_slots:
            raise ResourceError(
                f"root offset {offset} beyond table "
                f"({self.num_slots} x {self.slot_bytes} B)"
            )
        entry = self._slots[slot]
        return entry.mr, entry.base_offset + (offset - slot * self.slot_bytes), slot

    def write(self, offset: int, length: int, payload: bytes | None) -> int:
        """Apply a Write through the root mkey; returns the slot hit.  Once
        per SDR packet, so the slot is resolved inline: ``resolve`` raises."""
        slot = offset // self.slot_bytes
        if offset < 0 or slot >= self.num_slots:
            self.resolve(offset)  # raises
        entry = self._slots[slot]
        entry.mr.write(
            entry.base_offset + (offset - slot * self.slot_bytes), length, payload
        )
        return slot

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.num_slots:
            raise ResourceError(
                f"slot {slot} out of range [0, {self.num_slots})"
            )
