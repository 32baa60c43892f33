"""The substrate half of every reliability scheme, written once.

The paper's two-connection design (Section 4.1) gives every protocol pair a
data-path SDR QP and a control-path UD QP.  :class:`ControlPath` wraps the
UD QP with message (de)serialization; :class:`WriteTicket` /
:class:`ReceiveTicket` are the handles applications wait on.

A scheme is a *policy* over the SDR chunk bitmap and nothing else.
:class:`Endpoint`, :class:`Sender` and :class:`Receiver` own what is not
policy -- opening streams and tickets, chunk -> byte-range injection, the
poll-the-bitmap serve loop with its deadline and abandonment checks, slot
completion with the grace re-signal, and the one completion / one failure
path of a write -- so a scheme supplies only what to inject, what to tell
the peer per bitmap poll, and how to react to a control message
(docs/protocols.md, "Anatomy of a scheme").
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from repro.common import Registry
from repro.common.errors import ConfigError, DeliveryError
from repro.reliability.messages import decode_message
from repro.sdr.context import SdrContext
from repro.sdr.handles import RecvHandle, SendHandle
from repro.sdr.qp import SdrQp, SdrRecvWr, SdrSendWr
from repro.sim.engine import Event, Simulator
from repro.verbs.cq import CompletionQueue
from repro.verbs.mr import MemoryRegion
from repro.verbs.qp import QpInfo, SendWr, UdQp

#: Minimum wire size of a control datagram (header overheads dominate the
#: tiny payloads; a 64-byte frame matches real UD control traffic).
MIN_CTRL_BYTES = 64


def wait_injected(qp: SdrQp, hdl: SendHandle, target: int, then) -> bool:
    """Call ``then(poll)`` once ``target`` packets of ``hdl`` left the NIC;
    False (and nothing scheduled) if they already have.

    Progress is *polled*, on a grid of one chunk's wire time (resolved
    once per wait), not signalled by the injector: poll-grid instants and
    injection instants tie systematically (a chunk is a whole number of
    packets), heap sequence order breaks the tie, and an event-driven wake
    would land the waiter on the other side of it -- a behaviour change
    (see docs/simulation.md).  One re-arming
    :meth:`~repro.sim.engine.Simulator.poll_until` entry carries the whole
    wait; nothing ticks while the handle's clear-to-send is still in flight
    (no packet of it can be injected before).
    """
    channel = qp.data_qps[0][0].channel
    assert channel is not None
    quantum = max(qp.config.chunk_bytes / channel.config.bytes_per_second, 1e-7)
    poll = qp.sim.poll_until(
        lambda: hdl.packets_injected >= target, quantum, after=hdl.cts_event
    )
    if poll.processed:
        return False
    poll.callbacks.append(then)
    return True


def _delivery_error(
    reason: str, delivered: np.ndarray | None, total: int
) -> DeliveryError:
    """The one failure contract: every give-up carries its partial bitmap.

    ``delivered`` = per-chunk flags as far as the failing side knows them;
    None (no per-chunk state by design) reports 0 of ``total``, no bitmap.
    """
    if delivered is None:
        return DeliveryError(reason, total_chunks=total)
    return DeliveryError(
        reason,
        delivered_chunks=int(delivered.sum()),
        total_chunks=total,
        bitmap=np.packbits(delivered).tobytes(),
    )


class ControlPath:
    """A UD control endpoint carrying reliability-protocol messages."""

    def __init__(self, ctx: SdrContext):
        self.ctx = ctx
        self.sim: Simulator = ctx.sim
        cq = CompletionQueue(self.sim, name=f"{ctx.device.name}.ctrl.cq")
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
        #: The last datagram received and its decoded message: a repeated
        #: ACK arrives byte-identical, and messages are immutable.
        self._last_raw: bytes | None = None
        self._last_msg = None

    def info(self) -> QpInfo:
        return self.qp.info()

    def connect(self, remote: QpInfo) -> None:
        self.qp.connect(remote)

    def on_message(self, handler: Callable[[Any], None]) -> None:
        """Register a handler invoked with each decoded control message."""
        self._handlers.append(handler)

    def send(self, message):
        """Send ``message`` fitted to the path MTU (its ``fit``, if it does
        not fit as it is); return ``(sent, wire)``: the message as it went
        out and its wire bytes (see ``send_bytes``)."""
        raw = message.pack()
        if len(raw) > self.qp.mtu:
            message = message.fit(self.qp.mtu)
            raw = message.pack()
        return message, self.send_bytes(raw)

    def send_bytes(self, raw: bytes) -> bytes:
        """Send a packed control message; return its wire bytes (padded to
        ``MIN_CTRL_BYTES``), which a caller may send again as they are.
        The UD QP refuses a datagram larger than the path MTU."""
        size = len(raw)
        if size < MIN_CTRL_BYTES:
            raw += b"\x00" * (MIN_CTRL_BYTES - size)
            size = MIN_CTRL_BYTES
        # SendWr(length, rkey, remote_offset, payload, immediate, wr_id, signaled)
        self.qp.post_send(SendWr(size, 0, 0, raw, None, None, False))
        self.messages_sent += 1
        self.bytes_sent += size
        return raw

    def _on_datagram(self, payload, immediate, src_qpn) -> None:
        if payload is None:
            return
        if payload == self._last_raw:
            msg = self._last_msg
        else:
            raw = bytes(payload)
            msg = decode_message(raw)
            self._last_raw, self._last_msg = raw, msg
        self.messages_received += 1
        for handler in self._handlers:
            handler(msg)


class _Ticket:
    """What both tickets share: resolve ``done`` once, stamping the time."""

    def _finish(self, now: float) -> None:
        if self.finish_time is None:
            self.finish_time = now
            if not self.done.triggered:
                self.done.succeed(self)


@dataclass
class WriteTicket(_Ticket):
    """Sender-side handle for one reliable Write."""

    #: The message's first stream's seq; None while the write is held.
    seq: int | None
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


@dataclass
class ReceiveTicket(_Ticket):
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


class Endpoint:
    """What every reliability endpoint starts from.

    The data-path QP, the control path (``_on_ctrl`` is registered as its
    handler), the scheme's config, the RTT estimate and the telemetry
    handles, all named after ``scheme``: metric scope and trace track
    ``<scheme>.<device>``, trace category ``<scheme>``.
    """

    scheme = ""
    #: Default-constructed when the caller passes no config.
    config_type: type | None = None

    def __init__(
        self, qp: SdrQp, ctrl: ControlPath, config=None, *, rtt: float | None = None
    ):
        self.qp = qp
        self.sim = qp.sim
        self.ctrl = ctrl
        if config is None and self.config_type is not None:
            config = self.config_type()
        self.config = config
        self.rtt = rtt if rtt is not None else qp.ctx.channel_rtt_hint()
        self._track = f"{self.scheme}.{qp.ctx.device.name}"
        self._scope = self.sim.telemetry.metrics.scope(self._track)
        self._trace = self.sim.telemetry.trace
        ctrl.on_message(self._on_ctrl)

    def _on_ctrl(self, msg) -> None:
        """Policy hook: react to one decoded control message."""

    def _write_ticket(self, seq: int | None, length: int) -> WriteTicket:
        return WriteTicket(
            seq=seq, length=length, start_time=self.sim.now, done=self.sim.event()
        )


class WriteState:
    """Sender bookkeeping of one write: its ticket, streams and payload."""

    def __init__(
        self, ticket: WriteTicket, handles: list[SendHandle], nchunks: int, payload
    ):
        self.ticket = ticket
        self.handles = handles
        self.nchunks = nchunks
        self.payload = payload
        #: ``ticket.retransmitted_chunks`` at state creation: the per-attempt
        #: retry budget measures from here, so a resumed attempt gets a
        #: fresh budget while the ticket keeps the cumulative count.
        self.retx_base = ticket.retransmitted_chunks

    @property
    def hdl(self) -> SendHandle:
        """The write's (first) stream; its seq keys the sender's state table."""
        return self.handles[0]

    @property
    def delivered(self) -> np.ndarray | None:
        """Per-chunk delivery flags as far as the sender knows them; None for
        schemes that keep no per-chunk ACK state by design."""
        return None


class Sender(Endpoint):
    """Sender substrate: streams in, one completion and one failure out.

    :meth:`write` takes a write's slots through the QP; a policy supplies
    ``_start(ticket, payload)`` on :meth:`_open` / :meth:`_send_chunk` /
    :meth:`_inject` and ends every write through :meth:`_complete_write`
    or :meth:`_fail` -> :meth:`_fail_write`, which are the only places a
    stream is ended, a ``writes_*`` metric moves or a ticket resolves.
    """

    #: Per-write state class ``_open`` instantiates.
    state_type = WriteState

    def __init__(
        self, qp: SdrQp, ctrl: ControlPath, config=None, *, rtt: float | None = None
    ):
        super().__init__(qp, ctrl, config, rtt=rtt)
        self._states: dict[int, WriteState] = {}
        self._m_writes_completed = self._scope.counter("writes_completed")
        self._m_writes_failed = self._scope.counter("writes_failed")
        self._h_write_seconds = self._scope.histogram("write_seconds")

    def write(self, length: int, payload: bytes | None = None) -> WriteTicket:
        """Reliably write ``length`` bytes to the peer's next posted receive.

        The policy's ``_start`` opens the write through :meth:`SdrQp.take_slots`,
        which holds it (``seq`` None) while a resume grant is in flight; what
        the QP would refuse of its streams raises here, held or not."""
        self.qp.check_send(max(self._streams(length)))
        ticket = self._write_ticket(None, length)
        self.qp.take_slots(partial(self._start, ticket, payload))
        return ticket

    def _streams(self, length: int) -> list[int]:
        """The stream lengths a write of ``length`` bytes opens, in the
        matching order both sides agree on: one stream by default."""
        return [length]

    def _open(self, ticket: WriteTicket, payload: bytes | None) -> WriteState:
        """Open the write's streaming send(s) (:meth:`_streams`) and its
        state.  A ticket without a ``seq`` takes its first stream's; a
        resumed attempt's keeps the original message's."""
        handles = [
            self.qp.send_stream_start(SdrSendWr(length=n))
            for n in self._streams(ticket.length)
        ]
        if ticket.seq is None:
            ticket.seq = handles[0].seq
        state = self.state_type(
            ticket, handles, self.qp.config.chunks_in(ticket.length), payload
        )
        self._states[handles[0].seq] = state
        return state

    def _post(self, state: WriteState, **extra) -> None:
        """Emit the ``msg_post`` instant lineage files the message under."""
        if self._trace.enabled:
            self._trace.instant(
                "msg_post", cat=self.scheme, track=self._track,
                msg=state.hdl.seq, bytes=state.ticket.length,
                chunks=state.nchunks, **extra,
            )

    def _send_chunk(
        self,
        state: WriteState,
        index: int,
        *,
        attempt: int = 0,
        hdl: SendHandle | None = None,
        origin: int = 0,
    ) -> None:
        """Inject message chunk ``index``: chunk -> byte range of a stream.

        ``hdl`` / ``origin`` name the stream carrying the chunk and the
        message byte that stream starts at (multi-stream schemes).
        """
        cb = self.qp.config.chunk_bytes
        off = index * cb
        clen = min(cb, state.ticket.length - off)
        piece = None if state.payload is None else state.payload[off : off + clen]
        self.qp.send_stream_continue(
            hdl if hdl is not None else state.hdl, off - origin, clen, piece,
            attempt=attempt,
        )

    def _inject(
        self, state: WriteState, indices, on_wire, then, *, first: bool = True
    ) -> None:
        """Wire-paced injection: ``on_wire(index)`` as each chunk leaves the
        NIC, ``then()`` after the last (or once the stream is ended -- the
        write completed, failed or was taken over).

        Waiting for a chunk's packets to hit the wire before telling the
        policy avoids spurious RTOs when injecting the whole message takes
        longer than the RTO (the ``t_start(M) > RTO`` case).  A first
        transmission waits for its own packets, so a retransmission posted
        meanwhile does not hold it back; a later (sparse) pass waits for
        everything posted.
        """
        hdl = state.hdl
        ppc = self.qp.config.packets_per_chunk
        indices = iter(indices)

        def step(index=None, _poll=None) -> None:
            if index is not None:  # woken by the poll
                on_wire(index)
            for index in indices:
                if hdl.ended:
                    break
                self._send_chunk(state, index)
                posted = hdl.packets_posted
                target = min((index + 1) * ppc, posted) if first else posted
                if wait_injected(self.qp, hdl, target, partial(step, index)):
                    return
                on_wire(index)
            then()

        step()

    def _budget_exhausted(self, state: WriteState) -> bool:
        """Per-message retry budget: give up (gracefully) when spent.

        The budget is per *attempt* (``retx_base`` resets it on resumption);
        the ticket still accumulates the total across attempts.
        """
        budget = self.config.max_message_retransmits
        spent = state.ticket.retransmitted_chunks - state.retx_base
        if budget is not None and spent >= budget:
            self._fail(
                state,
                f"write seq={state.ticket.seq} exceeded message retransmit "
                f"budget ({budget})",
            )
            return True
        return False

    def _end_streams(self, state: WriteState) -> None:
        for hdl in state.handles:
            if not hdl.ended:
                self.qp.send_stream_end(hdl)

    def _complete_write(self, state: WriteState, **span) -> None:
        """The one success path: end the streams, resolve the ticket."""
        ticket = state.ticket
        self._end_streams(state)
        ticket._finish(self.sim.now)
        self._m_writes_completed.inc()
        self._h_write_seconds.observe(self.sim.now - ticket.start_time)
        if self._trace.enabled:
            self._trace.complete(
                f"{self.scheme}_write", cat=self.scheme, track=self._track,
                start=ticket.start_time, msg=ticket.seq, seq=ticket.seq,
                bytes=ticket.length, **span,
            )

    def _fail(
        self, state: WriteState, reason: str, *, event: str = "write_failed"
    ) -> None:
        """Give up on ``state``: escalate if the scheme can, else fail for real."""
        self._states.pop(state.hdl.seq, None)
        if not self._escalate(state, reason):
            self._fail_write(state, reason, event=event)

    def _escalate(self, state: WriteState, reason: str) -> bool:
        """Policy hook: hand a given-up write to a resumption (False = cannot)."""
        return False

    def _fail_write(
        self, state: WriteState, reason: str, *, event: str = "write_failed"
    ) -> None:
        """The one give-up path: end the streams, fail the ticket.

        Every failure is a :class:`DeliveryError` carrying the delivered-
        chunk bitmap as far as this side knows it (``state.delivered``).
        """
        ticket = state.ticket
        error = _delivery_error(reason, state.delivered, state.nchunks)
        self._end_streams(state)
        self._m_writes_failed.inc()
        ticket.failed = True
        if self._trace.enabled:
            self._trace.instant(
                event, cat=self.scheme, track=self._track,
                msg=ticket.seq, seq=ticket.seq,
                delivered=error.delivered_chunks, total=state.nchunks,
            )
        if not ticket.done.triggered:
            ticket.done.fail(error)


class Receiver(Endpoint):
    """Receiver substrate: post, watch the bitmap, finish.

    A policy implements ``_serve(ticket, rh)`` as ``_watch`` (telling the
    peer what the bitmap says on every poll) followed by its completion
    signal and ``_finish``.
    """

    def __init__(
        self, qp: SdrQp, ctrl: ControlPath, config=None, *, rtt: float | None = None
    ):
        super().__init__(qp, ctrl, config, rtt=rtt)
        #: What this receiver serves, by original seq (resumption looks the
        #: message up here when the sender asks for a fresh slot).
        self._serving: dict[int, tuple] = {}

    def post_receive(
        self, mr: MemoryRegion, length: int, mr_offset: int = 0
    ) -> ReceiveTicket:
        """Post a receive buffer; the scheme serves it until completion."""
        rh = self.qp.recv_post(SdrRecvWr(mr=mr, length=length, mr_offset=mr_offset))
        ticket = ReceiveTicket(
            seq=rh.seq, length=length, done=self.sim.event(), recv_handles=[rh]
        )
        self._serving[rh.seq] = (ticket, rh)
        # The serve starts on its own dispatch, as the process it was did.
        self.sim.call_in(0.0, self._serve, ticket, rh)
        return ticket

    def _serve(self, ticket: ReceiveTicket, rh: RecvHandle) -> None:
        """Policy hook: start serving one posted receive (``_watch``)."""
        raise NotImplementedError

    def _watch(
        self, ticket: ReceiveTicket, rh: RecvHandle, interval: float, on_poll, then
    ) -> None:
        """Poll ``rh``'s chunk bitmap every ``interval`` until it is full.

        ``on_poll()`` runs after every wait (the bitmap may be full by
        then); ``then()`` runs once every chunk arrived.  Neither runs
        again after the slot was abandoned to a resumption grant or the
        serve deadline (``config.serve_deadline_rtts``) failed the ticket.
        """
        _Watch(self, ticket, rh, interval, on_poll, then)

    def abandon(self, ticket: ReceiveTicket) -> None:
        """Stop serving ``ticket``, whose write failed: what is missing is
        not coming.  It fails with the chunks that arrived, as at the serve
        deadline.  A completed ticket, or one served elsewhere, is left alone."""
        entry = None if ticket.done.triggered else self._serving.pop(ticket.seq, None)
        if entry is not None:
            self._give_up(ticket, self._arrived(*entry))

    def _arrived(self, ticket: ReceiveTicket, rh: RecvHandle) -> np.ndarray:
        """The chunks that arrived of the message ``_serving`` holds as ``rh``."""
        return rh.bitmap().as_array()

    def _give_up(self, ticket: ReceiveTicket, delivered: np.ndarray) -> None:
        """Serve deadline passed: abandon the open slots (late chunks die on
        the NULL mkey, not in a buffer reported failed), then fail the
        ticket with the partial bitmap."""
        for rh in ticket.recv_handles:
            if not rh.completed:
                self.qp.recv_abandon(rh)
        if not ticket.done.triggered:
            ticket.done.fail(
                _delivery_error(
                    f"receive seq={ticket.seq} incomplete at serve deadline",
                    delivered, delivered.size,
                )
            )

    def _finish(self, ticket: ReceiveTicket, handles, resignal, every: float) -> None:
        """Complete the slots and the ticket, then re-signal through grace.

        The caller has just sent its completion signal; ``resignal()``
        repeats it every ``every`` seconds for ``config.grace_rtts`` in case
        it is lost.  Completing frees the SDR resources and arms late-packet
        protection.  Grace over, the message leaves ``_serving`` (unless a
        resumption granted meanwhile re-keyed it): a later request finds
        nothing to adopt.
        """
        for rh in handles:
            rh.complete()
        sim = self.sim
        ticket._finish(sim.now)
        grace_end = sim.now + self.config.grace_rtts * self.rtt
        entry = self._serving.get(ticket.seq)

        def tick(resend: bool = True) -> None:
            if resend:
                resignal()
            if sim.now < grace_end:
                timer.arm(every)
            elif self._serving.get(ticket.seq) is entry:
                self._serving.pop(ticket.seq, None)

        timer = sim.timer(tick)
        tick(resend=False)


class _Watch:
    """One :meth:`Receiver._watch`: a poll timer raced against the last chunk.

    Waiting is the timer being armed.  Its expiry takes one more
    same-instant heap entry before the poll -- the dispatch of the
    ``any_of`` gate this replaced: polls sit on an RTT grid other timers
    share, and heap order decides which of them sees the other's datagram
    (``docs/simulation.md``).  The last chunk's event polls directly.
    """

    __slots__ = (
        "receiver", "ticket", "rh", "interval", "on_poll", "then", "deadline",
        "timer",
    )

    def __init__(self, receiver: Receiver, ticket, rh, interval, on_poll, then):
        self.receiver = receiver
        self.ticket = ticket
        self.rh = rh
        self.interval = interval
        self.on_poll = on_poll
        self.then = then
        sim = receiver.sim
        rtts = receiver.config.serve_deadline_rtts
        self.deadline = None if rtts is None else sim.now + rtts * receiver.rtt
        self.timer = sim.timer(sim.call_in, 0.0, self._poll)
        self._wait()
        if self.timer.armed:
            rh.wait_all_chunks().callbacks.append(self._all_arrived)

    def _wait(self) -> None:
        rh = self.rh
        if rh.all_chunks_received():
            self.then()
        elif not rh.completed:  # else: abandoned by a resumption grant
            if self.deadline is not None and self.receiver.sim.now >= self.deadline:
                self.receiver._give_up(self.ticket, rh.bitmap().as_array())
            else:
                self.timer.arm(self.interval)

    def _all_arrived(self, _event: Event) -> None:
        if self.timer.armed:  # else: the poll is on its way, or the watch over
            self.timer.cancel()
            self._poll()

    def _poll(self) -> None:
        rh = self.rh
        if rh.completed and not rh.all_chunks_received():
            return  # abandoned while waiting
        self.on_poll()
        self._wait()


#: name -> (sender type, receiver type, config overrides).  A built-in
#: registers when its module is imported, at the latest by the first lookup
#: of its name; :meth:`~repro.common.Registry.complete` loads them all.
SCHEMES: Registry = Registry({
    "sr": "repro.reliability.sr",
    "sr_nack": "repro.reliability.sr",
    "ec": "repro.reliability.ec",
    "adaptive": "repro.reliability.adaptive",
    "gbn": "repro.reliability.gbn",
    "sampling": "repro.reliability.sampling",
})


def register_scheme(
    name: str, sender_type: type, receiver_type: type, **config_overrides
) -> None:
    """Register a reliability scheme (the idiom of ``repro.ec.register_codec``).

    ``config_overrides`` build the endpoints' ``config_type`` when the caller
    brings no config.  Re-registering the same entry is a no-op; rebinding a
    name to anything else raises, so a scheme is never silently replaced.
    """
    entry = (sender_type, receiver_type, config_overrides)
    if SCHEMES.setdefault(name, entry) != entry:
        raise ConfigError(f"scheme {name!r} already registered")
