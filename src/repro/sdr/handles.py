"""Send and receive handles returned by the SDR API.

A :class:`SendHandle` tracks injection progress of a one-shot or streaming
send; ``poll`` mirrors the paper's ``send_poll``.  A :class:`RecvHandle`
owns the receive-side state of one posted message: the user buffer binding,
the backend per-packet bitmap, the frontend chunk bitmap the application
polls, user-immediate reconstruction, and completion.

Handles are created by :class:`repro.sdr.qp.SdrQp`; applications never
construct them directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.bitmap import Bitmap
from repro.common.errors import SdrStateError
from repro.sdr.imm import ImmLayout, UserImmAssembler
from repro.sim.engine import Event, Simulator

if TYPE_CHECKING:  # import cycle guard
    from repro.sdr.qp import SdrQp
    from repro.verbs.mr import MemoryRegion


class SendHandle:
    """Progress tracker for one SDR send message (one-shot or streaming)."""

    def __init__(self, qp: "SdrQp", seq: int, msg_id: int, generation: int):
        self.qp = qp
        self.seq = seq
        self.msg_id = msg_id
        self.generation = generation
        self.packets_posted = 0
        self.packets_injected = 0
        self.bytes_posted = 0
        self.ended = False  # one-shot sends end implicitly
        self.cts_event: Event = qp.sim.event()
        self._posted_at = qp.sim.now
        self._span_emitted = False

    # -- API ---------------------------------------------------------------------

    def poll(self) -> bool:
        """``send_poll``: True when every posted packet has been injected.

        For streaming sends, completion additionally requires
        ``send_stream_end`` to have been called.
        """
        return self.ended and self.packets_injected >= self.packets_posted

    # -- backend -----------------------------------------------------------------

    def _on_end(self) -> None:
        self.ended = True
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if not self.poll() or self._span_emitted:
            return
        self._span_emitted = True
        tr = self.qp._trace
        if tr.enabled:
            tr.complete(
                "send_inject", cat="sdr", track=self.qp._track,
                start=self._posted_at, seq=self.seq,
                bytes=self.bytes_posted, packets=self.packets_injected,
            )


class ChunkCount:
    """A countdown of chunk-bitmap updates, shared by the handles whose
    :attr:`RecvHandle.count` it is: the update that brings ``left`` to 0
    schedules ``fn(*args)`` in its instant, in the heap slot a
    :meth:`RecvHandle.wait_chunk` event would take; every other update
    costs a decrement (no event, no timer, no heap entry)."""

    __slots__ = ("left", "fn", "args")

    def __init__(self, left: int, fn, *args):
        self.left = left
        self.fn = fn
        self.args = args


class RecvHandle:
    """Receive-side state of one posted SDR message."""

    def __init__(
        self,
        qp: "SdrQp",
        *,
        seq: int,
        msg_id: int,
        generation: int,
        mr: "MemoryRegion",
        mr_offset: int,
        length: int,
        npackets: int,
        nchunks: int,
        packets_per_chunk: int,
        layout: ImmLayout,
    ):
        self.qp = qp
        self.sim: Simulator = qp.sim
        self.seq = seq
        self.msg_id = msg_id
        self.generation = generation
        self.mr = mr
        self.mr_offset = mr_offset
        self.length = length
        self.npackets = npackets
        self.nchunks = nchunks
        self.packets_per_chunk = packets_per_chunk
        # Backend (DPA-side) per-packet bitmap.
        self.packet_bitmap = Bitmap(npackets)
        # Frontend (host-side) chunk bitmap -- what the reliability layer polls.
        self.chunk_bitmap = Bitmap(nchunks)
        # Per-chunk fill counters for O(1) chunk-close detection (lists:
        # one packet's update is scalar arithmetic, not a NumPy scalar op).
        self._chunk_fill = [0] * nchunks
        self._chunk_goal = [packets_per_chunk] * nchunks
        self._chunk_goal[-1] = npackets - (nchunks - 1) * packets_per_chunk
        self._imm = UserImmAssembler(layout)
        self.completed = False
        self.late_packets_filtered = 0
        #: Packets received more than once (retransmissions of chunks that
        #: had already landed) -- a receiver-side loss/retransmission signal
        #: used by the adaptive provisioning layer.
        self.duplicate_packets = 0
        #: Validated data packets seen / seen with the ECN CE bit set --
        #: the congestion signal the reliability layer echoes back to the
        #: sender through the ACK path (see ``repro.cc``).
        self.packets_seen = 0
        self.ce_packets = 0
        #: Echo cursors: how much of the above the last ACK already carried.
        self.ce_echoed = 0
        self.seen_echoed = 0
        self._chunk_waiters: list[Event] = []
        #: The :class:`ChunkCount` this handle's chunk updates count down.
        self.count: ChunkCount | None = None
        self._all_event: Event | None = None
        self._posted_at = qp.sim.now

    # -- API ---------------------------------------------------------------------

    def bitmap(self) -> Bitmap:
        """``recv_bitmap_get``: the frontend chunk bitmap (live view)."""
        return self.chunk_bitmap

    def imm_get(self) -> int | None:
        """``recv_imm_get``: the user immediate, or None if not yet ready."""
        return self._imm.value() if self._imm.ready else None

    def complete(self) -> None:
        """``recv_complete``: mark done, free the slot, arm late protection."""
        if self.completed:
            raise SdrStateError(f"receive (seq={self.seq}) already completed")
        self.completed = True
        tr = self.qp._trace
        if tr.enabled:
            tr.complete(
                "recv_msg", cat="sdr", track=self.qp._track,
                start=self._posted_at, seq=self.seq, bytes=self.length,
                duplicates=self.duplicate_packets,
            )
        self.qp._on_recv_complete(self)

    def all_chunks_received(self) -> bool:
        return self.chunk_bitmap.all_set()

    def wait_chunk(self) -> Event:
        """Event firing on the *next* chunk-bitmap update.

        Never fires retroactively: if the message is already complete and no
        further chunks will arrive, the event stays pending (race it against
        a :class:`~repro.sim.engine.Timer` when polling).
        """
        ev = self.sim.event()
        self._chunk_waiters.append(ev)
        return ev

    def wait_all_chunks(self) -> Event:
        """Event firing when the whole message has been received."""
        if self._all_event is None:
            self._all_event = self.sim.event()
            if self.all_chunks_received():
                self._all_event.succeed(self)
        return self._all_event

    # -- backend (called from the DPA worker path) ---------------------------------

    def _on_packet(self, packet_index: int, fragment: int) -> bool:
        """Record packet arrival in the backend bitmap.

        Returns True when this packet closes its chunk (the caller then pays
        the PCIe cost and schedules the host-visible chunk update).
        """
        if packet_index >= self.npackets:
            self.late_packets_filtered += 1
            return False
        if not self.packet_bitmap.set(packet_index):
            self.duplicate_packets += 1
            self.qp._m_duplicate_packets.value += 1
            return False  # duplicate (e.g. spurious retransmission)
        self._imm.feed(packet_index, fragment)
        chunk = packet_index // self.packets_per_chunk
        fill = self._chunk_fill[chunk] + 1
        self._chunk_fill[chunk] = fill
        return fill == self._chunk_goal[chunk]

    def _publish_chunk(self, chunk_index: int) -> None:
        """Host-visible chunk-bitmap update (runs after the PCIe delay)."""
        if self.completed:
            return
        self.chunk_bitmap.set(chunk_index)
        waiters, self._chunk_waiters = self._chunk_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed(self)
        count = self.count
        if count is not None:
            count.left -= 1
            if not count.left:
                self.sim.call_in(0.0, count.fn, *count.args)
        if (
            self._all_event is not None
            and not self._all_event.triggered
            and self.chunk_bitmap.all_set()
        ):
            self._all_event.succeed(self)
