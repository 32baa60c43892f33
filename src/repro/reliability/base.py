"""Shared plumbing for reliability protocols: control path and tickets.

The paper's two-connection design (Section 4.1) gives every protocol pair a
data-path SDR QP and a control-path UD QP.  :class:`ControlPath` wraps the
UD QP with message (de)serialization; :class:`WriteTicket` /
:class:`ReceiveTicket` are the handles applications wait on.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import ConfigError
from repro.reliability.messages import decode_message
from repro.sdr.context import SdrContext
from repro.sdr.handles import SendHandle
from repro.sdr.qp import SdrQp
from repro.sim.engine import Event, Simulator
from repro.verbs.cq import CompletionQueue
from repro.verbs.qp import QpInfo, SendWr, UdQp

#: Minimum wire size of a control datagram (header overheads dominate the
#: tiny payloads; a 64-byte frame matches real UD control traffic).
MIN_CTRL_BYTES = 64


def wait_injected(qp: SdrQp, hdl: SendHandle, target: int):
    """Park the calling process until ``target`` packets of ``hdl`` left the NIC.

    ``yield from`` this from a sender process.  Progress is *polled*, on a
    grid of one chunk's wire time (resolved once per wait), not signalled
    by the injector: poll-grid instants and injection instants tie
    systematically (a chunk is a whole number of packets), heap sequence
    order breaks the tie, and an event-driven wake would land the waiter on
    the other side of it -- a behaviour change (see docs/simulation.md).
    One re-arming :meth:`~repro.sim.engine.Simulator.poll_until` entry
    carries the whole wait; nothing is scheduled if it is already over.
    """
    channel = qp.data_qps[0][0].channel
    assert channel is not None
    quantum = max(qp.config.chunk_bytes / channel.config.bytes_per_second, 1e-7)
    poll = qp.sim.poll_until(lambda: hdl.packets_injected >= target, quantum)
    if not poll.processed:
        yield poll


class ControlPath:
    """A UD control endpoint carrying reliability-protocol messages."""

    def __init__(self, ctx: SdrContext, *, name: str = "ctrl"):
        self.ctx = ctx
        self.sim: Simulator = ctx.sim
        cq = CompletionQueue(self.sim, name=f"{ctx.device.name}.{name}.cq")
        self.qp = UdQp(ctx.device, send_cq=cq, recv_cq=cq)
        self.qp.attach_recv_handler(self._on_datagram)
        self._handlers: list[Callable[[Any], None]] = []
        self.messages_sent = 0
        self.messages_received = 0
        #: Cumulative wire bytes of sent control datagrams (zero-padding
        #: included).  A plain attribute, not a metric, so arming it never
        #: perturbs trace/metric determinism; the ACK-traffic benchmark
        #: reads it to compare protocols' control overhead.
        self.bytes_sent = 0

    def info(self) -> QpInfo:
        return self.qp.info()

    def connect(self, remote: QpInfo) -> None:
        self.qp.connect(remote)

    def on_message(self, handler: Callable[[Any], None]) -> None:
        """Register a handler invoked with each decoded control message."""
        self._handlers.append(handler)

    def send(self, message) -> None:
        """Serialize and send a control message to the connected peer."""
        raw = message.pack()
        mtu = self.qp.mtu
        if len(raw) > mtu:
            raise ConfigError(
                f"control message of {len(raw)} B exceeds path MTU {mtu}"
            )
        self.qp.post_send(
            SendWr(
                length=max(len(raw), MIN_CTRL_BYTES),
                payload=raw + b"\x00" * max(0, MIN_CTRL_BYTES - len(raw)),
                signaled=False,
            )
        )
        self.messages_sent += 1
        self.bytes_sent += max(len(raw), MIN_CTRL_BYTES)

    def _on_datagram(self, payload, immediate, src_qpn) -> None:
        if payload is None:
            return
        msg = decode_message(bytes(payload))
        self.messages_received += 1
        for handler in self._handlers:
            handler(msg)


@dataclass
class WriteTicket:
    """Sender-side handle for one reliable Write."""

    seq: int
    length: int
    start_time: float
    done: Event
    #: Filled in when the final acknowledgment arrives.
    finish_time: float | None = None
    retransmitted_chunks: int = 0
    nacks_received: int = 0
    fell_back_to_sr: bool = False
    failed: bool = False
    #: Bitmap-driven resumptions consumed so far (see ``repro.recovery``).
    resumptions: int = 0

    @property
    def completion_time(self) -> float:
        """The paper's T_protocol: first injection to final ACK reception."""
        if self.finish_time is None:
            raise ConfigError("write has not completed yet")
        return self.finish_time - self.start_time

    def _finish(self, now: float) -> None:
        if self.finish_time is None:
            self.finish_time = now
            if not self.done.triggered:
                self.done.succeed(self)


@dataclass
class ReceiveTicket:
    """Receiver-side handle for one reliable Write."""

    seq: int
    length: int
    done: Event
    recv_handles: list = field(default_factory=list)
    decoded_chunks: int = 0
    fell_back_to_sr: bool = False
    finish_time: float | None = None
    #: Resumption grants issued for this message (see ``repro.recovery``).
    resumptions: int = 0

    def _finish(self, now: float) -> None:
        if self.finish_time is None:
            self.finish_time = now
            if not self.done.triggered:
                self.done.succeed(self)
