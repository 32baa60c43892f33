"""Completion queues and completion-queue entries.

A :class:`Cqe` mirrors ``ibv_wc``: the QP it arrived on, the opcode, status,
byte count, the 32-bit immediate (when present) and the simulated timestamp.
:class:`CompletionQueue` supports both a *polling* consumer (``poll``) and a
*push* consumer (``attach``), the latter used by emulated DPA worker threads
that sleep until a completion lands (Section 3.4.2 of the paper).
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Callable
from typing import NamedTuple

from repro.common.errors import ResourceError
from repro.net.packet import Opcode
from repro.sim.engine import Event, Simulator


class CqeStatus(enum.Enum):
    SUCCESS = "success"
    LOCAL_ERROR = "local_error"


class Cqe(NamedTuple):
    """One completion entry.

    Tuple-backed (``docs/simulation.md``, "Hot-path records"): built once
    per packet, so construction is one ``tuple.__new__``; immutable as the
    frozen dataclass it replaced was, and equal on the same seven fields.
    """

    qpn: int
    opcode: Opcode
    byte_len: int
    timestamp: float
    immediate: int | None = None
    wr_id: int | None = None
    status: CqeStatus = CqeStatus.SUCCESS
    # -- lineage: carried along, left out of equality and hashing --
    #: Which internal QP generation delivered the entry (SDR backend tag;
    #: plain Verbs consumers ignore it).
    generation: int = 0
    #: Lineage correlation key copied from the triggering packet/WR (see
    #: ``repro.telemetry.lineage``); None outside the SDR data path.
    msg_seq: int | None = None
    pkt_idx: int | None = None
    chunk: int | None = None
    #: ECN Congestion Experienced, copied from the delivered packet so the
    #: SDR receive path can echo congestion back through the ACK path (see
    #: ``repro.cc``).
    ce: bool = False

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Cqe:
            return self[:_COMPARED] == other[:_COMPARED]
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        # tuple's own ``!=`` would compare all twelve fields.
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        return hash(self[:_COMPARED])


#: Fields of a :class:`Cqe`, from the front, that take part in ``==``.
_COMPARED = Cqe._fields.index("generation")


class CompletionQueue:
    """FIFO of CQEs with optional capacity and push notification."""

    def __init__(self, sim: Simulator, *, capacity: int | None = None, name: str = ""):
        self.sim = sim
        # Anonymous CQs get a deterministic per-run sequence name so their
        # registry metrics stay stable across same-seed runs.
        self.name = name or sim.telemetry.unique("cq")
        self.capacity = capacity
        #: Pending completions, oldest first.  A push consumer that owns the
        #: queue (a DPA worker) pops the head here instead of via ``poll``.
        self.entries: deque[Cqe] = deque()
        self._listener: Callable[["CompletionQueue"], None] | None = None
        self._wakeups: list[Event] = []
        scope = sim.telemetry.metrics.scope(f"cq.{self.name}")
        self._m_posted = scope.counter("cqes_posted")
        self._m_overflows = scope.counter("overflows")

    @property
    def total_posted(self) -> int:
        """Total CQEs ever accepted (registry-backed)."""
        return self._m_posted.value

    @property
    def overflows(self) -> int:
        """CQEs dropped because the queue was at capacity (registry-backed)."""
        return self._m_overflows.value

    def __len__(self) -> int:
        return len(self.entries)

    def push(self, cqe: Cqe) -> None:
        """NIC-side: append a completion entry."""
        if self.capacity is not None and len(self.entries) >= self.capacity:
            # Real CQ overflow is fatal to the QP; for the simulation we
            # count and drop, which shows up in stats rather than crashing
            # long benchmark runs.
            self._m_overflows.inc()
            return
        self.entries.append(cqe)
        self._m_posted.value += 1
        if self._listener is not None:
            self._listener(self)
        while self._wakeups:
            self._wakeups.pop().succeed(self)

    def count_consumed(self) -> None:
        """NIC-side: count a completion its consumer took at delivery.

        What a :class:`~repro.verbs.qp.UdQp` with a receive handler posts
        (the handler has the datagram already), and a
        :class:`~repro.verbs.qp.UcQp` whose send completions go to a
        ``wr_id`` counter: no entry is queued.
        """
        self._m_posted.value += 1

    def poll(self, max_entries: int = 1) -> list[Cqe]:
        """Consumer-side: pop up to ``max_entries`` completions."""
        if max_entries <= 0:
            raise ResourceError(f"max_entries must be > 0, got {max_entries}")
        out: list[Cqe] = []
        while self.entries and len(out) < max_entries:
            out.append(self.entries.popleft())
        return out

    def attach(self, listener: Callable[["CompletionQueue"], None]) -> None:
        """Register a push consumer invoked on every new entry."""
        self._listener = listener

    def wait_nonempty(self) -> Event:
        """Event that fires when the CQ next receives an entry.

        Fires immediately if entries are already pending, so worker loops
        can ``yield cq.wait_nonempty()`` without races.
        """
        ev = self.sim.event()
        if self.entries:
            ev.succeed(self)
        else:
            self._wakeups.append(ev)
        return ev
