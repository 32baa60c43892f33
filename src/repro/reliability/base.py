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
from repro.reliability.messages import ResumeReq, decode_message
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
#: Spacing of a resuming sender's ``ResumeReq`` retries, in RTTs (covers
#: lost control datagrams in either direction).
RESUME_INTERVAL_RTTS = 4.0
#: ``ResumeReq`` datagrams sent without an answer before the write fails.
MAX_RESUME_REQUESTS = 25


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

    #: The message's first stream's seq.
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
    #: Resumptions in place consumed so far (docs/robustness.md).
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
    #: Resume requests this receiver answered for the message.
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
        #: Metric scope and trace track of the resumption exchange.
        self._rtrack = f"recovery.{qp.ctx.device.name}"
        ctrl.on_message(self._on_ctrl)

    def _on_ctrl(self, msg) -> None:
        """Policy hook: react to one decoded control message."""

    def _count(self, name: str, n: int = 1) -> None:
        """Move the resumption counter ``recovery.<device>.<name>`` by ``n``.
        Made on first use: a scheme that never resumes registers none (SR
        makes its own eagerly, with ``n=0``)."""
        self.sim.telemetry.metrics.counter(f"{self._rtrack}.{name}").inc(n)

    def _write_ticket(self, seq: int, length: int) -> WriteTicket:
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

    :meth:`write` opens a write's streams in the QP's send order and hands
    its state to the policy's ``_start(state)``, which injects through
    :meth:`_send_chunk` / :meth:`_inject` and ends every write through
    :meth:`_complete_write` or :meth:`_fail` -> :meth:`_fail_write`, the
    only places a stream is ended, a ``writes_*`` metric moves or a ticket
    resolves.  A write given up may first resume in place (:meth:`_resume`).
    """

    #: Per-write state class ``write`` instantiates.
    state_type = WriteState
    #: Optional :class:`repro.recovery.PlaneRecovery` fed loss signals.
    recovery = None

    def __init__(
        self, qp: SdrQp, ctrl: ControlPath, config=None, *, rtt: float | None = None
    ):
        super().__init__(qp, ctrl, config, rtt=rtt)
        self._states: dict[int, WriteState] = {}
        #: Writes waiting for the receiver's answer to a resume request.
        self._resuming: dict[int, WriteState] = {}
        self._m_writes_completed = self._scope.counter("writes_completed")
        self._m_writes_failed = self._scope.counter("writes_failed")
        self._h_write_seconds = self._scope.histogram("write_seconds")

    def attach_recovery(self, recovery) -> None:
        """Feed loss signals into a plane-recovery monitor."""
        self.recovery = recovery

    def write(self, length: int, payload: bytes | None = None) -> WriteTicket:
        """Reliably write ``length`` bytes to the peer's next posted receive.

        The write's streams (:meth:`_streams`) take the QP's next send seqs,
        in the matching order both sides agree on; what the QP would refuse
        of any of them raises before one is opened."""
        streams = self._streams(length)
        self.qp.check_send(max(streams))
        handles = [self.qp.send_stream_start(SdrSendWr(length=n)) for n in streams]
        ticket = self._write_ticket(handles[0].seq, length)
        state = self.state_type(
            ticket, handles, self.qp.config.chunks_in(length), payload
        )
        self._states[ticket.seq] = state
        self._start(state)
        return ticket

    def _start(self, state: WriteState) -> None:
        """Policy hook: start injecting the write ``state`` opened."""

    def _streams(self, length: int) -> list[int]:
        """The stream lengths a write of ``length`` bytes opens, in the
        matching order both sides agree on: one stream by default."""
        return [length]

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
        if ticket.resumptions:
            self._count("resumes_completed")
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
        """Policy hook: hand a given-up write to :meth:`_resume` (False = cannot)."""
        return False

    # -- resumption in place -------------------------------------------------------

    def _resume(self, state: WriteState) -> bool:
        """Resume the given-up write ``state`` in its own slot, if its budget
        (``config.max_resumptions``) allows; False = fail it for real.

        The streams stay open and the write's timers stop (it has left
        ``_states``); ``ResumeReq(seq, attempt)`` goes out every
        ``RESUME_INTERVAL_RTTS`` until the receiver's first signal for the
        message revives it (:meth:`_revive`), ``MAX_RESUME_REQUESTS`` at most.
        """
        ticket = state.ticket
        if ticket.resumptions >= self.config.max_resumptions:
            return False
        ticket.resumptions += 1
        self._resuming[ticket.seq] = state
        self._count("resumes_started")
        if self._trace.enabled:
            delivered = state.delivered
            self._trace.instant(
                "resume_begin", cat="recovery", track=self._rtrack,
                msg=ticket.seq, attempt=ticket.resumptions,
                delivered=0 if delivered is None else int(delivered.sum()),
                total=state.nchunks,
            )
        self.sim.call_in(0.0, self._request_resume, state, ticket.resumptions, 0)
        return True

    def _request_resume(self, state: WriteState, attempt: int, sent: int) -> None:
        """Re-send the resume request until answered or out of retries (a
        retry keeps the ``any_of`` gate's hop, docs/simulation.md)."""
        seq = state.ticket.seq
        if state.ticket.resumptions != attempt or seq not in self._resuming:
            return  # answered
        if sent == MAX_RESUME_REQUESTS:
            del self._resuming[seq]
            self._count("resume_failures")
            if self._trace.enabled:
                self._trace.instant(
                    "resume_failed", cat="recovery", track=self._rtrack,
                    msg=seq, attempt=attempt,
                )
            self._fail_write(
                state,
                f"write seq={seq} resume attempt {attempt} failed: "
                f"resume request never answered",
            )
            return
        self.ctrl.send(ResumeReq(msg_seq=seq, attempt=attempt))
        self.sim.call_in(
            RESUME_INTERVAL_RTTS * self.rtt,
            self.sim.call_in, 0.0, self._request_resume, state, attempt, sent + 1,
        )

    def _revive(self, seq: int) -> WriteState | None:
        """The receiver signalled about ``seq``: if that write is resuming,
        it is live again with a fresh per-attempt budget (``retx_base``),
        and the policy's ``_resumed`` re-arms it.  Returns the revived
        state (None: ``seq`` was not resuming), which the caller hands the
        signal to, so only what the receiver lacks is sent again."""
        state = self._resuming.pop(seq, None)
        if state is not None:
            state.retx_base = state.ticket.retransmitted_chunks
            self._states[seq] = state
            if self._trace.enabled:
                self._trace.instant(
                    "resume_post", cat="recovery", track=self._rtrack,
                    msg=seq, attempt=state.ticket.resumptions,
                )
            self._resumed(state)
        return state

    def _resumed(self, state: WriteState) -> None:
        """Policy hook: re-arm a revived write's timers."""

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
    """Receiver substrate: post, watch the bitmap, finish, answer resumes.

    A policy implements ``_serve(ticket, rh)`` as ``_watch`` (telling the
    peer what the bitmap says on every poll) followed by its completion
    signal and ``_finish``, and answers a sender resuming a message in
    place through ``_answer_serving`` / ``_answer_finished``.
    """

    def __init__(
        self, qp: SdrQp, ctrl: ControlPath, config=None, *, rtt: float | None = None
    ):
        super().__init__(qp, ctrl, config, rtt=rtt)
        #: What this receiver serves, by seq: ``(ticket, what the policy
        #: serves it with)``, until the grace window after completion ends.
        self._serving: dict[int, tuple] = {}
        #: The seqs this receiver posted, as ``[first, stop)`` runs: one run
        #: unless another receiver posts on the same QP in between.
        self._posted: list[list[int]] = []
        #: The seqs it gave up (abandoned or past the serve deadline).
        self._given_up: set[int] = set()

    def post_receive(
        self, mr: MemoryRegion, length: int, mr_offset: int = 0
    ) -> ReceiveTicket:
        """Post a receive buffer; the scheme serves it until completion."""
        rh = self.qp.recv_post(SdrRecvWr(mr=mr, length=length, mr_offset=mr_offset))
        ticket = ReceiveTicket(
            seq=rh.seq, length=length, done=self.sim.event(), recv_handles=[rh]
        )
        self._file(ticket, rh)
        # The serve starts on its own dispatch, as the process it was did.
        self.sim.call_in(0.0, self._serve, ticket, rh)
        return ticket

    def _file(self, ticket: ReceiveTicket, served) -> None:
        """Serve ``ticket`` with ``served``; its slots join this receiver's
        posts."""
        self._serving[ticket.seq] = (ticket, served)
        stop = ticket.recv_handles[-1].seq + 1
        if self._posted and self._posted[-1][1] == ticket.seq:
            self._posted[-1][1] = stop
        else:
            self._posted.append([ticket.seq, stop])

    def _serve(self, ticket: ReceiveTicket, rh: RecvHandle) -> None:
        """Policy hook: start serving one posted receive (``_watch``)."""

    # -- answering a resumption in place -----------------------------------------------

    def _on_ctrl(self, msg) -> None:
        if isinstance(msg, ResumeReq):
            self._answer(msg)

    def _answer(self, msg: ResumeReq) -> None:
        """A sender resumes ``msg.msg_seq`` in its own slot: tell it what
        this receiver holds.  A message still served gets the policy's
        bitmap signal (``_answer_serving``), and its serve deadline starts
        over; a finished one, after its grace window too, its completion
        signal (``_answer_finished``).  A seq this receiver never posted
        (another receiver on the QP owns it) or gave up gets no answer."""
        seq = msg.msg_seq
        entry = self._serving.get(seq)
        if entry is None:
            if seq in self._given_up or not any(
                first <= seq < stop for first, stop in self._posted
            ):
                return
            self._answer_finished(seq)
        else:
            ticket = entry[0]
            ticket.resumptions += 1
            if ticket.done.triggered:  # completed: re-signalling through grace
                self._answer_finished(seq)
            else:
                self._answer_serving(*entry)
        self._count("resumes_granted")
        if self._trace.enabled:
            self._trace.instant(
                "resume_grant", cat="recovery", track=self._rtrack,
                msg=seq, attempt=msg.attempt, serving=entry is not None,
            )

    def _answer_serving(self, ticket: ReceiveTicket, served) -> None:
        """Policy hook: the bitmap signal for a message still served."""

    def _answer_finished(self, seq: int) -> None:
        """Policy hook: the completion signal for a finished message."""

    def _watch(
        self, ticket: ReceiveTicket, rh: RecvHandle, interval: float, on_poll, then
    ) -> None:
        """Poll ``rh``'s chunk bitmap every ``interval`` until it is full.

        ``on_poll()`` runs after every wait (the bitmap may be full by
        then); ``then()`` runs once every chunk arrived.  Neither runs
        again after the slot was abandoned or the serve deadline
        (``config.serve_deadline_rtts``, restarted by each answered resume
        request) failed the ticket.
        """
        _Watch(self, ticket, rh, interval, on_poll, then)

    def abandon(self, ticket: ReceiveTicket) -> None:
        """Stop serving ``ticket``, whose write failed: what is missing is
        not coming.  It fails with the chunks that arrived, as at the serve
        deadline.  A completed ticket, or one served elsewhere, is left alone."""
        entry = self._serving.get(ticket.seq)
        if entry is not None and not ticket.done.triggered:
            self._give_up(ticket, self._arrived(*entry))

    def _arrived(self, ticket: ReceiveTicket, rh: RecvHandle) -> np.ndarray:
        """The chunks that arrived of the message ``_serving`` holds as ``rh``."""
        return rh.bitmap().as_array()

    def _give_up(self, ticket: ReceiveTicket, delivered: np.ndarray) -> None:
        """Serve deadline passed: stop serving, abandon the open slots (late
        chunks die on the NULL mkey, not in a buffer reported failed), then
        fail the ticket with the partial bitmap."""
        del self._serving[ticket.seq]
        self._given_up.add(ticket.seq)
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
        protection.  Grace over, the message leaves ``_serving``: a resume
        request for it is answered from this receiver's posts (``_answer``).
        """
        for rh in handles:
            rh.complete()
        sim = self.sim
        ticket._finish(sim.now)
        grace_end = sim.now + self.config.grace_rtts * self.rtt

        def tick(resend: bool = True) -> None:
            if resend:
                resignal()
            if sim.now < grace_end:
                timer.arm(every)
            else:
                del self._serving[ticket.seq]

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
        "answered", "timer",
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
        self.answered = ticket.resumptions
        self.timer = sim.timer(sim.call_in, 0.0, self._poll)
        self._wait()
        if self.timer.armed:
            rh.wait_all_chunks().callbacks.append(self._all_arrived)

    def _wait(self) -> None:
        rh = self.rh
        if rh.all_chunks_received():
            self.then()
        elif not rh.completed:  # else: abandoned
            receiver, now = self.receiver, self.receiver.sim.now
            if self.deadline is not None and self.answered != self.ticket.resumptions:
                # A resume request was answered: the deadline starts over.
                self.answered = self.ticket.resumptions
                self.deadline = now + receiver.config.serve_deadline_rtts * receiver.rtt
            if self.deadline is not None and now >= self.deadline:
                receiver._give_up(self.ticket, rh.bitmap().as_array())
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
