"""Selective Repeat reliability over the SDR bitmap (Section 4.1.1).

Sender side: streaming SDR sends inject message chunks in order, wire-paced;
each chunk carries a retransmission timeout ``RTO = (1 + alpha) * RTT``
(the paper's "SR RTO" scenario uses 3 RTTs, i.e. ``alpha = 2``).  Expired
chunks are re-injected via ``send_stream_continue``.  ACKs remove chunks
from the retransmission set.

Receiver side: periodically polls the SDR chunk bitmap and ships ACKs that
encode the bitmap in two parts -- a cumulative ACK plus a selective window.
With ``nack_enabled`` the receiver additionally reports *gaps* (chunks
missing while later chunks have arrived) as explicit NACKs, letting the
sender recover in ~1 RTT instead of an RTO -- the paper's "SR NACK"
optimization.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.common.bitmap import mask_bits
from repro.common.config import Bounded, bound
from repro.common.errors import ConfigError
from repro.recovery.resume import ResumeToken
from repro.reliability.base import (
    ControlPath,
    Receiver,
    ReceiveTicket,
    Sender,
    WriteState,
    WriteTicket,
    register_scheme,
    wait_injected,
)
from repro.reliability.messages import Ack, ResumeAck, ResumeReq, SrNack
from repro.sdr.handles import RecvHandle
from repro.sdr.qp import SdrQp, SdrRecvWr
from repro.telemetry.trace import flow_key
from repro.verbs.mr import MemoryRegion

#: Receiver bitmap poll / ACK period in RTTs (GBN's too).
ACK_INTERVAL_RTTS = 0.25
#: Minimum spacing (in RTTs) between NACKs for the same chunk.
NACK_HOLDOFF_RTTS = 1.0
#: Cap of the adaptive and backed-off RTO, in RTTs.
MAX_RTO_RTTS = 64.0
#: Cap on consecutive RTO doublings (``rto_backoff``).
BACKOFF_CAP = 6


@dataclass(frozen=True)
class SrConfig(Bounded):
    """Tuning knobs for the Selective Repeat layer."""

    #: RTO in network round-trip times: RTO = rto_rtts * RTT.  The paper's
    #: "SR RTO" scenario uses 3 (RTT + alpha*RTT with alpha = 2).
    rto_rtts: float = field(default=3.0, metadata=bound(gt=0))
    #: Enable the receiver-side gap NACK fast path ("SR NACK" scenario).
    nack_enabled: bool = False
    #: Bytes of selective-ACK bitmap window per ACK: None = as much as fits
    #: the path MTU (Section 4.1.1); a number is still clipped to that.
    ack_window_bytes: int | None = field(
        default=None, metadata=bound(gt=0, optional=True)
    )
    #: How long (in RTTs) the receiver keeps re-ACKing after completion, to
    #: survive final-ACK drops.
    grace_rtts: float = 10.0
    #: Safety valve: a write fails after this many retransmissions of a
    #: single chunk (pathological channels only).
    max_chunk_retransmits: int = field(default=100, metadata=bound(gt=0))
    #: Jacobson/Karn adaptive RTO: estimate SRTT/RTTVAR from ACK timestamps
    #: (RTO = SRTT + 4*RTTVAR, samples only from never-retransmitted chunks)
    #: instead of the fixed ``rto_rtts * RTT``.
    adaptive_rto: bool = False
    #: Floor of the adaptive RTO estimate, in RTTs (``MAX_RTO_RTTS`` is
    #: its cap).
    min_rto_rtts: float = field(default=1.0, metadata=bound(gt=0, le=MAX_RTO_RTTS))
    #: Double the RTO on consecutive timer fires (capped at ``2**BACKOFF_CAP``
    #: and by ``MAX_RTO_RTTS``); reset on ACK progress.
    rto_backoff: bool = False
    #: Per-message retransmission budget (None = unlimited).  Exhausting it
    #: degrades gracefully: the write fails with a
    #: :class:`~repro.common.errors.DeliveryError` carrying the partial
    #: delivered-chunk bitmap instead of retransmitting forever.
    max_message_retransmits: int | None = field(
        default=None, metadata=bound(gt=0, optional=True)
    )
    #: Receiver-side liveness valve: give up serving an incomplete message
    #: after this many RTTs (None = wait forever, the default).
    serve_deadline_rtts: float | None = field(
        default=None, metadata=bound(gt=0, optional=True)
    )
    #: Bitmap-driven resumptions allowed per message (0 = disabled, the
    #: seed behaviour).  When the retry budget is exhausted the sender
    #: snapshots the chunk bitmap and re-posts the remainder under a fresh
    #: ``(msg_id, generation)`` slot instead of failing (``repro.recovery``).
    max_resumptions: int = field(default=0, metadata=bound(ge=0))
    #: Spacing of resume-request retries, in RTTs (covers lost control
    #: datagrams in either direction).
    resume_interval_rtts: float = field(default=4.0, metadata=bound(gt=0))
    #: Resume requests sent without a grant before the write finally fails.
    max_resume_requests: int = field(default=25, metadata=bound(gt=0))


class _SendState(WriteState):
    """Per-message SR sender bookkeeping."""

    def __init__(self, ticket: WriteTicket, handles, nchunks: int, payload):
        super().__init__(ticket, handles, nchunks, payload)
        #: The chunks not yet acknowledged, as an integer (bit ``i`` = chunk
        #: ``i``): emptiness, membership and "what does this ACK add" are
        #: scalar operations, whatever the message size.
        self.unacked = (1 << nchunks) - 1
        #: Per-chunk RTO expiry; ``inf`` = no timer running.  Only an
        #: unacknowledged chunk ever holds a finite deadline (``_arm`` and
        #: ``on_plane_failover`` write under ``unacked``, an ACK stores
        #: ``inf``), so ``deadline.min()`` is the state's timer horizon.
        self.deadline = np.full(nchunks, np.inf)
        self.retransmit_count = np.zeros(nchunks, dtype=np.int64)
        #: Simulated time each chunk last hit the wire (NaN = not yet);
        #: feeds Jacobson RTT samples and the NACK holdoff.
        self.sent_at = np.full(nchunks, np.nan)
        #: True when this state serves a bitmap-driven resumption.
        self.resumed = False
        #: Retransmitted chunks waiting for wire injection before their
        #: RTO is (re)armed, in post order; while non-empty, one
        #: ``_restamp`` drains it.
        self.restamp: deque[tuple[int, int]] = deque()
        #: The last ``Ack`` applied here.  The control path hands a repeated
        #: datagram over as the same object, and it confirms nothing new.
        self.last_ack: Ack | None = None

    @property
    def complete(self) -> bool:
        return not self.unacked

    @property
    def delivered(self) -> np.ndarray:
        raw = self.unacked.to_bytes(-(-self.nchunks // 8), "little")
        return ~np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8), count=self.nchunks, bitorder="little"
        ).astype(bool)


class _PendingResume(WriteState):
    """A resumption waiting for the receiver's grant (no stream open yet)."""

    def __init__(self, token: ResumeToken, ticket: WriteTicket, payload):
        super().__init__(ticket, [], token.total_chunks, payload)
        self.token = token

    @property
    def delivered(self) -> np.ndarray | None:
        return self.token.delivered_mask() if self.token.bitmap else None


class SrSender(Sender):
    """Sender endpoint of the Selective Repeat protocol."""

    scheme = "sr"
    config_type = SrConfig
    state_type = _SendState

    def __init__(
        self,
        qp: SdrQp,
        ctrl: ControlPath,
        config: SrConfig | None = None,
        *,
        rtt: float | None = None,
    ):
        super().__init__(qp, ctrl, config, rtt=rtt)
        self._base_rto = self.config.rto_rtts * self.rtt
        self._srtt: float | None = None
        self._rttvar = 0.0
        self._backoff = 0
        self._pending_resumes: dict[int, _PendingResume] = {}
        #: Writes posted while a resume grant is in flight, in post order.
        #: The receiver re-posts a resumed message under its next slot, so
        #: they take theirs only after that re-post or its failure.
        self._held: deque[tuple[WriteTicket, bytes | None]] = deque()
        #: Optional :class:`repro.recovery.PlaneRecovery` fed RTO/NACK
        #: loss signals (see :meth:`attach_recovery`).
        self.recovery = None
        #: Optional :class:`repro.cc.Pacer` fed RTT samples, ECN echoes and
        #: loss signals (see :meth:`attach_cc`).
        self.cc = None
        #: The retransmission clock: ``_rto_timer`` expires at the earliest
        #: chunk deadline of any write; ``_wake`` is a kick on its way
        #: (``_kick_timer``), allowed once per ``_retime``.
        self._rto_timer = self.sim.timer(self._on_rto)
        self._wake = self.sim.timer(self._on_wake)
        self._kickable = False
        self.sim.call_in(0.0, self._retime)
        self._m_rto_fires = self._scope.counter("rto_fires")
        self._m_retransmitted = self._scope.counter("retransmitted_chunks")
        self._m_nacks_received = self._scope.counter("nacks_received")
        self._rtrack = f"recovery.{qp.ctx.device.name}"
        rscope = self.sim.telemetry.metrics.scope(self._rtrack)
        self._m_resumes_started = rscope.counter("resumes_started")
        self._m_resumes_completed = rscope.counter("resumes_completed")
        self._m_resume_failures = rscope.counter("resume_failures")
        self._m_chunks_skipped = rscope.counter("resumed_chunks_skipped")
        self._m_chunks_resent = rscope.counter("resumed_chunks_retransmitted")

    @property
    def rto(self) -> float:
        """Current retransmission timeout.

        Fixed ``rto_rtts * RTT`` by default; with ``adaptive_rto`` the
        Jacobson estimate ``SRTT + 4*RTTVAR`` clamped to
        ``[min_rto_rtts, MAX_RTO_RTTS] * RTT``.  With ``rto_backoff`` the
        result is doubled per consecutive timer fire (Karn's backoff),
        still capped by ``MAX_RTO_RTTS``.
        """
        if self.config.adaptive_rto and self._srtt is not None:
            rto = self._srtt + 4.0 * self._rttvar
            rto = min(
                max(rto, self.config.min_rto_rtts * self.rtt),
                MAX_RTO_RTTS * self.rtt,
            )
        else:
            rto = self._base_rto
        if self._backoff:
            rto = min(rto * (2.0 ** self._backoff), MAX_RTO_RTTS * self.rtt)
        return rto

    def _rtt_sample(self, sample: float) -> None:
        """Fold one clean (Karn-valid) RTT measurement into SRTT/RTTVAR."""
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample

    # -- recovery-plane hooks ---------------------------------------------------------

    def attach_recovery(self, recovery) -> None:
        """Feed RTO/NACK loss signals into a plane-recovery monitor.

        Also registers :meth:`on_plane_failover` so a breaker opening
        immediately re-arms the in-flight chunk timers (the lost chunks
        retransmit over the surviving planes instead of waiting out RTOs).
        """
        self.recovery = recovery
        if recovery is not None:
            recovery.add_listener(self.on_plane_failover)

    def attach_cc(self, pacer) -> None:
        """Feed congestion signals into a :class:`repro.cc.Pacer`.

        The sender becomes the pacer's signal ingress: Karn-valid RTT
        samples and ACK-echoed ECN marks flow in from the ACK path and
        RTO fires register as loss signals.  (Actuation is separate --
        attach the pacer to the SDR QP with
        :meth:`repro.sdr.qp.SdrQp.attach_pacer`.)  Pass ``None`` to
        detach.
        """
        self.cc = pacer

    def on_plane_failover(self, plane: int) -> None:
        """Clamp pending chunk deadlines so expiry fires now (failover)."""
        now = self.sim.now
        kicked = False
        for state in self._states.values():
            mask = np.isfinite(state.deadline)  # finite => unacked
            if mask.any():
                state.deadline[mask] = np.minimum(state.deadline[mask], now)
                kicked = True
        if kicked:
            self._kick_timer()

    def _data_qpn(self) -> int:
        """A representative data-path QPN (plane attribution under ECMP)."""
        return self.qp.data_qps[0][0].qpn

    # -- public API -----------------------------------------------------------------

    def write(self, length: int, payload: bytes | None = None) -> WriteTicket:
        """Reliably write ``length`` bytes to the peer's next posted receive.

        A write posted while a resume grant is in flight is held until the
        resumed attempt has taken its slot (``_held``); its ticket's ``seq``
        is None until then.
        """
        if self._pending_resumes:
            ticket = self._write_ticket(None, length)
            self._held.append((ticket, payload))
            return ticket
        return self._launch(self._open(length, payload))

    def _launch(self, state: _SendState) -> WriteTicket:
        self._post(state)
        self.sim.call_in(0.0, self._inject_chunks, state)
        return state.ticket

    def _launch_held(self) -> None:
        """Give the oldest held write its slot."""
        ticket, payload = self._held.popleft()
        state = self._open(ticket.length, payload, ticket=ticket)
        ticket.seq = state.hdl.seq
        self._launch(state)

    def _release_held(self) -> None:
        """Launch the held writes in post order once no grant is in flight."""
        while self._held and not self._pending_resumes:
            self._launch_held()

    def resume(self, token: ResumeToken) -> WriteTicket:
        """Resume a failed write from ``token`` (bitmap-driven resumption).

        Re-posts the message under a fresh ``(msg_id, generation)`` slot --
        packets still in flight toward the old slot die on the NULL mkey --
        and retransmits only the chunks the receiver's bitmap marks
        missing.  Returns a fresh :class:`WriteTicket` (``seq`` keeps the
        original message's sequence number).
        """
        ticket = self._write_ticket(token.msg_seq, token.length)
        self._start_resume(token, ticket, None)
        return ticket

    # -- resumption (repro.recovery) --------------------------------------------------

    def takeover(self, state: WriteState, reason: str, *, protocol: str = "sr") -> bool:
        """Resume ``state``'s write under a fresh slot if its budget allows.

        The single sender-side resumption hand-off, for this sender's own
        writes and for the schemes SR backstops (:class:`SrBacked`): ends
        the old streams, snapshots ``state.delivered`` (None = unknown, the
        receiver's grant bitmap is authoritative) into a
        :class:`ResumeToken` and starts the request/grant exchange.  False
        means the budget is spent and the caller fails the write for real.
        """
        ticket, delivered = state.ticket, state.delivered
        if (
            ticket.resumptions >= self.config.max_resumptions
            or ticket.seq in self._pending_resumes
        ):
            return False
        self._end_streams(state)
        token = ResumeToken(
            msg_seq=ticket.seq,
            length=ticket.length,
            total_chunks=state.nchunks,
            bitmap=b"" if delivered is None else np.packbits(delivered).tobytes(),
            reason=reason,
            attempt=ticket.resumptions + 1,
            protocol=protocol,
        )
        self._start_resume(token, ticket, state.payload)
        return True

    def _start_resume(self, token: ResumeToken, ticket: WriteTicket, payload):
        if token.msg_seq in self._pending_resumes:
            raise ConfigError(f"write seq={token.msg_seq} is already resuming")
        ticket.resumptions = token.attempt
        pending = _PendingResume(token, ticket, payload)
        self._pending_resumes[token.msg_seq] = pending
        self._m_resumes_started.inc()
        if self._trace.enabled:
            self._trace.instant(
                "resume_begin", cat="recovery", track=self._rtrack,
                msg=token.msg_seq, attempt=token.attempt,
                delivered=token.delivered_chunks, total=token.total_chunks,
            )
        self.sim.call_in(0.0, self._request_resume, pending, 0)

    def _request_resume(self, pending: _PendingResume, sent: int) -> None:
        """Re-send the resume request until granted or out of retries (a
        retry keeps the ``any_of`` gate's hop, docs/simulation.md)."""
        seq = pending.token.msg_seq
        if self._pending_resumes.get(seq) is not pending:
            return  # granted
        if sent == self.config.max_resume_requests:
            del self._pending_resumes[seq]
            self._resume_failed(pending, "resume request never granted")
            self._release_held()
            return
        self.ctrl.send(ResumeReq(msg_seq=seq, attempt=pending.token.attempt))
        self.sim.call_in(
            self.config.resume_interval_rtts * self.rtt,
            self.sim.call_in, 0.0, self._request_resume, pending, sent + 1,
        )

    def _resume_failed(self, pending: _PendingResume, why: str) -> None:
        """Terminal resume failure: surface the token's partial bitmap."""
        token = pending.token
        self._m_resume_failures.inc()
        if self._trace.enabled:
            self._trace.instant(
                "resume_failed", cat="recovery", track=self._rtrack,
                msg=token.msg_seq, attempt=token.attempt,
            )
        self._fail_write(
            pending,
            f"write seq={token.msg_seq} resume attempt {token.attempt} "
            f"failed: {why}",
        )

    def _launch_resumed(self, pending: _PendingResume, ack: ResumeAck) -> None:
        """The receiver granted: re-post and inject only the missing chunks.

        Slots are taken in the receiver's order: held writes first fill the
        slots of the receives the peer posted before its grant.
        """
        token = pending.token
        while self._held and self.qp.next_send_seq < ack.new_seq:
            self._launch_held()
        if self.qp.next_send_seq != ack.new_seq:
            # Order-based matching broke (the two sides posted different
            # messages before the grant): no slot of ours lines up with the
            # receiver's re-post, so the resume fails and takes none.
            self._resume_failed(
                pending,
                f"slot mismatch (local seq {self.qp.next_send_seq}, "
                f"peer {ack.new_seq})",
            )
            return
        state = self._open(token.length, pending.payload, ticket=pending.ticket)
        new_seq = state.hdl.seq
        state.unacked &= ~ack.acked_mask(state.nchunks)
        state.resumed = True
        missing = state.unacked.bit_count()
        self._m_chunks_skipped.inc(state.nchunks - missing)
        # The msg_post carries ``resumed_from`` so lineage folds the
        # resumed slot into the original message's history.
        self._post(state, resumed_from=token.msg_seq)
        if self._trace.enabled:
            self._trace.instant(
                "resume_post", cat="recovery", track=self._rtrack,
                msg=token.msg_seq, new_msg=new_seq,
                missing=missing, skipped=state.nchunks - missing,
                attempt=token.attempt,
            )
        self.sim.call_in(0.0, self._inject_chunks, state)

    # -- injection -------------------------------------------------------------------

    def _inject_chunks(self, state: _SendState) -> None:
        """First pass: every chunk; resumed pass: only what the grant lacks.

        Each chunk's RTO is stamped as it leaves the NIC.
        """
        if state.resumed:
            # Re-checked at send time: a chunk may be acked while earlier
            # ones are pacing.
            indices = (
                i for i in mask_bits(state.unacked) if state.unacked >> i & 1
            )
        else:
            indices = range(state.nchunks)

        def on_wire(index: int) -> None:
            if state.resumed:
                self._m_chunks_resent.inc()
            self._arm(state, index)

        self._inject(
            state, indices, on_wire, lambda: self._maybe_finish(state),
            first=not state.resumed,
        )

    def _arm(self, state: _SendState, index: int, *, kick: bool = True) -> None:
        """Chunk ``index`` is on the wire: start its RTO clock from now."""
        if state.unacked >> index & 1:
            state.deadline[index] = self.sim.now + self.rto
            state.sent_at[index] = self.sim.now
            if kick:
                self._kick_timer()

    def _queue_restamp(self, state: _SendState, index: int) -> None:
        """Defer ``index``'s RTO until its retransmitted packets leave.

        The retransmit analogue of the ``t_start(M) > RTO`` guard in
        ``_inject``: under cc pacing the injector can hold a chunk far
        longer than the RTO itself, and stamping the deadline at trigger
        time would re-fire the timer while the chunk still sits in the
        pacer queue -- a self-feeding spurious-retransmit storm.

        Unpaced injection cannot stall (wire-time only), so without an
        active pacer rate the deadline is armed inline at trigger time --
        keeping unpaced retransmission timing (backoff batching, budget
        exhaustion, failover clamps) exactly as before cc existed.
        """
        pacer = self.qp.pacer
        if pacer is None or pacer.controller.rate_bps is None:
            # No kick: the caller is the timer loop or re-reads it anyway.
            self._arm(state, index, kick=False)
            return
        state.deadline[index] = np.inf
        state.sent_at[index] = np.nan
        if not state.restamp:
            self.sim.call_in(0.0, self._restamp, state)
        state.restamp.append((index, state.hdl.packets_posted))

    def _restamp(self, state: _SendState, _poll=None) -> None:
        """Drain the restamp queue in post order (injection is FIFO).

        One drain per message regardless of how many chunks an RTO storm
        retransmits at once, so the poller count stays bounded.
        """
        while state.restamp:
            index, target = state.restamp[0]
            # Re-checked on wake, when the wait is over.
            if wait_injected(self.qp, state.hdl, target, partial(self._restamp, state)):
                return
            state.restamp.popleft()
            self._arm(state, index)

    # -- timers ------------------------------------------------------------------------

    def _kick_timer(self) -> None:
        """A deadline moved earlier or a write left: re-read the horizon."""
        if self._kickable:
            self._kickable = False
            self._wake.arm(0.0)

    def _on_wake(self) -> None:
        self._rto_timer.cancel()
        self._retime()

    def _on_rto(self) -> None:
        self._wake.cancel()
        # One more same-instant entry before anything is retransmitted: the
        # dispatch of the ``any_of`` gate this replaced.  Senders sharing a
        # bottleneck expire together, and who re-injects first is in every
        # incast digest (docs/simulation.md).
        self.sim.call_in(0.0, self._retime)

    def _retime(self) -> None:
        """Fire what expired, then wait for the next deadline (or a kick)."""
        now = self.sim.now
        while True:
            horizon = min(
                (float(s.deadline.min()) for s in self._states.values()),
                default=np.inf,
            )
            self._wake.cancel()
            self._kickable = True
            if horizon > now:
                if horizon != np.inf:
                    self._rto_timer.arm(horizon - now)
                return
            self._fire_expired()

    def _fire_expired(self) -> None:
        now = self.sim.now
        if self.config.rto_backoff and any(
            s.deadline.min() <= now for s in self._states.values()
        ):
            # Back off *before* restamping so the new deadlines already
            # carry the doubled timeout (Karn's backoff).
            self._backoff = min(self._backoff + 1, BACKOFF_CAP)
        for state in list(self._states.values()):
            for index in np.flatnonzero(state.deadline <= now):
                index = int(index)
                if state.retransmit_count[index] >= self.config.max_chunk_retransmits:
                    self._fail(state, f"chunk {index} exceeded retransmit budget")
                    break
                if not self._retransmit(state, index, rto=True):
                    break

    def _retransmit(self, state: _SendState, index: int, *, rto: bool) -> bool:
        """Re-inject one chunk on RTO expiry or NACK; False = the write gave up."""
        if self._budget_exhausted(state):
            return False
        state.retransmit_count[index] += 1
        attempt = int(state.retransmit_count[index])
        seq = state.ticket.seq
        self._m_retransmitted.inc()
        if rto:
            self._m_rto_fires.inc()
            if self.recovery is not None:
                self.recovery.note_rto(src_qpn=self._data_qpn())
            if self.cc is not None:
                self.cc.on_loss()
        if self._trace.enabled:
            if rto:
                self._trace.instant(
                    "rto_fire", cat="sr", track=self._track,
                    msg=seq, seq=seq, chunk=index, attempt=attempt,
                )
            else:
                self._trace.instant(
                    "nack_retx", cat="sr", track=self._track,
                    msg=seq, chunk=index, attempt=attempt,
                )
            self._trace.flow_start(
                "retx", cat="sr", track=self._track,
                flow_id=flow_key(seq, index, attempt),
                msg=seq, chunk=index, attempt=attempt,
            )
        self._send_chunk(state, index, attempt=attempt)
        self._queue_restamp(state, index)
        state.ticket.retransmitted_chunks += 1
        return True

    def _escalate(self, state: WriteState, reason: str) -> bool:
        return self.takeover(state, reason)

    # -- control-path handling ----------------------------------------------------------

    def _on_ctrl(self, msg) -> None:
        if isinstance(msg, Ack):
            state = self._states.get(msg.msg_seq)
            if state is None or (msg is state.last_ack and not msg.ecn_marked):
                return  # applied already: it confirms nothing new
            state.last_ack = msg
            now = self.sim.now
            progress = False
            want_rtt = self.config.adaptive_rto or self.cc is not None
            # Only what this ACK adds: the prefix every ACK repeats is
            # masked off before anything is visited.
            new = msg.acked_mask(state.nchunks) & state.unacked
            if new:
                progress = True
                state.unacked ^= new
                for index in mask_bits(new):
                    state.deadline[index] = np.inf
                    # Karn's rule: only chunks never retransmitted yield an
                    # unambiguous RTT sample.
                    if (
                        want_rtt
                        and state.retransmit_count[index] == 0
                        and np.isfinite(state.sent_at[index])
                    ):
                        sample = now - state.sent_at[index]
                        if self.config.adaptive_rto:
                            self._rtt_sample(sample)
                        if self.cc is not None:
                            self.cc.on_rtt_sample(sample)
            if progress:
                self._backoff = 0
            if self.cc is not None:
                if msg.ecn_marked > 0:
                    self.cc.on_ecn_echo(msg.ecn_marked, msg.ecn_seen)
                elif progress:
                    self.cc.on_ack_progress()
            self._maybe_finish(state)
        elif isinstance(msg, SrNack):
            state = self._states.get(msg.msg_seq)
            if state is None:
                return
            state.ticket.nacks_received += 1
            self._m_nacks_received.inc()
            if self.recovery is not None:
                self.recovery.note_nack(
                    src_qpn=self._data_qpn(), missing=len(msg.chunks)
                )
            now = self.sim.now
            holdoff = NACK_HOLDOFF_RTTS * self.rtt
            for index in msg.chunks:
                if index < state.nchunks and state.unacked >> index & 1:
                    # Skip chunks still injecting or retransmitted recently
                    # (avoids double-firing with an RTO retransmission).
                    if not np.isfinite(state.sent_at[index]) or (
                        now - state.sent_at[index] < holdoff
                    ):
                        continue
                    if not self._retransmit(state, int(index), rto=False):
                        return
        elif isinstance(msg, ResumeAck):
            pending = self._pending_resumes.get(msg.msg_seq)
            if pending is None:
                return  # duplicate grant: the resumed state already launched
            if msg.attempt != pending.token.attempt:
                return  # late grant for a superseded attempt
            del self._pending_resumes[msg.msg_seq]
            self._launch_resumed(pending, msg)
            self._release_held()

    def _maybe_finish(self, state: _SendState) -> None:
        if state.complete and self._states.pop(state.hdl.seq, None) is not None:
            self._complete_write(
                state, retransmits=state.ticket.retransmitted_chunks
            )
            if state.resumed:
                self._m_resumes_completed.inc()
            self._kick_timer()


class SrBacked(Sender):
    """A sender whose last resort is a Selective Repeat phase (EC, sampling).

    When such a scheme gives up, both sides re-post the remainder under a
    fresh slot and an internal :class:`SrSender` finishes the message
    (``repro.recovery``).  The backstop is built lazily, so a run that
    never escalates constructs no SR state, and it is reached only through
    its public :meth:`SrSender.takeover` / :meth:`SrSender.resume`.
    """

    _sr: SrSender | None = None
    #: Optional :class:`repro.recovery.PlaneRecovery` fed NACK signals.
    recovery = None

    def _backstop_config(self) -> SrConfig:
        """Policy hook: how the SR phase behind this scheme is tuned."""
        raise NotImplementedError

    def _backstop(self) -> SrSender:
        if self._sr is None:
            self._sr = SrSender(
                self.qp, self.ctrl, self._backstop_config(), rtt=self.rtt
            )
            if self.recovery is not None:
                self._sr.attach_recovery(self.recovery)
        return self._sr

    def attach_recovery(self, recovery) -> None:
        """Feed loss signals (the backstop's included) into a plane monitor."""
        self.recovery = recovery
        if self._sr is not None and recovery is not None:
            self._sr.attach_recovery(recovery)

    def resume(self, token: ResumeToken) -> WriteTicket:
        """Resume a failed write: SR-style remainder under a fresh slot."""
        return self._backstop().resume(token)

    def _escalate(self, state: WriteState, reason: str) -> bool:
        # Never build the backstop for a scheme that cannot resume.
        return self.config.max_resumptions > 0 and self._backstop().takeover(
            state, reason, protocol=self.scheme
        )


class SrReceiver(Receiver):
    """Receiver endpoint of the Selective Repeat protocol."""

    scheme = "sr"
    config_type = SrConfig

    def __init__(
        self,
        qp: SdrQp,
        ctrl: ControlPath,
        config: SrConfig | None = None,
        *,
        rtt: float | None = None,
    ):
        super().__init__(qp, ctrl, config, rtt=rtt)
        #: Highest granted attempt + its ResumeAck, for idempotent re-grants.
        self._resume_grants: dict[int, tuple[int, ResumeAck]] = {}
        self._m_acks_sent = self._scope.counter("acks_sent")
        self._m_nacks_sent = self._scope.counter("nacks_sent")
        self._rtrack = f"recovery.{qp.ctx.device.name}"
        self._m_resumes_granted = self.sim.telemetry.metrics.scope(
            self._rtrack
        ).counter("resumes_granted")

    @property
    def acks_sent(self) -> int:
        return self._m_acks_sent.value

    @property
    def nacks_sent(self) -> int:
        return self._m_nacks_sent.value

    # -- resumption grants (repro.recovery) --------------------------------------------

    def _on_ctrl(self, msg) -> None:
        if not isinstance(msg, ResumeReq):
            return
        prev = self._resume_grants.get(msg.msg_seq)
        if prev is not None and prev[0] >= msg.attempt:
            # Duplicate request (our grant was lost or is in flight):
            # re-announce the same grant instead of re-posting.
            self.ctrl.send(prev[1])
            return
        entry = self._serving.get(msg.msg_seq)
        if entry is not None:  # else: not a message this receiver ever served
            self.adopt(msg, entry[0], [entry[1]])

    def adopt(
        self,
        msg: ResumeReq,
        ticket: ReceiveTicket,
        old_handles: list[RecvHandle],
        mr: MemoryRegion | None = None,
        length: int | None = None,
        mr_offset: int = 0,
        delivered: np.ndarray | None = None,
    ) -> None:
        """Grant a resumption: take over serving ``ticket`` under a fresh slot.

        The single receiver-side resumption hand-off, for this receiver's
        own messages and for the schemes SR backstops: abandons whichever
        of ``old_handles`` are still open (in-flight packets die on the
        NULL mkey from here on), re-posts the buffer pre-seeded with
        ``delivered``, announces the grant (the fresh slot's bitmap from
        its cumulative byte, as an ACK window), and serves the fresh slot.
        The grant is remembered, so duplicate and follow-up requests for
        the message are answered here.

        A single-buffer scheme passes only its one handle: the same buffer
        is re-posted, seeded from the handle's live bitmap, and a slot
        whose chunks all arrived is left to complete on its own.
        """
        if delivered is None:
            (rh,) = old_handles
            mr, length, mr_offset = rh.mr, rh.length, rh.mr_offset
            delivered = rh.bitmap().as_array()  # a fresh array
            if rh.all_chunks_received():
                old_handles = []
        for rh in old_handles:
            if not rh.completed:
                self.qp.recv_abandon(rh)
        rh2 = self.qp.recv_post(
            SdrRecvWr(mr=mr, length=length, mr_offset=mr_offset),
            preset_chunks=delivered,
        )
        ticket.resumptions += 1
        ticket.recv_handles.append(rh2)
        self._serving[msg.msg_seq] = (ticket, rh2)
        bitmap = rh2.bitmap()
        cumulative = bitmap.cumulative()
        ack = ResumeAck(
            msg.msg_seq, rh2.seq, rh2.nchunks, msg.attempt, cumulative // 8 * 8,
            bitmap.to_bytes(start_bit=cumulative),
        )
        self._resume_grants[msg.msg_seq] = (msg.attempt, ack)
        self._m_resumes_granted.inc()
        if self._trace.enabled:
            self._trace.instant(
                "resume_grant", cat="recovery", track=self._rtrack,
                msg=msg.msg_seq, new_msg=rh2.seq, attempt=msg.attempt,
                delivered=int(delivered.sum()), total=rh2.nchunks,
            )
        self.ctrl.send(ack)
        self.sim.call_in(0.0, self._serve, ticket, rh2)

    # -- serve loop ----------------------------------------------------------------------

    def _serve(self, ticket: ReceiveTicket, rh: RecvHandle) -> None:
        # ACK/NACK under the handle's own seq: for a resumed serve this is
        # the fresh slot's seq (what the sender's resumed state is keyed by),
        # for the original serve it equals ticket.seq.
        last_nack = np.full(rh.nchunks, -np.inf)
        # [chunks set, wire bytes] of the last trailer-free poll ACK.
        last_ack = [-1, b""]

        def on_poll() -> None:
            self._send_ack(rh, last_ack)
            if self.config.nack_enabled and not rh.all_chunks_received():
                self._send_gap_nacks(rh, last_nack)

        def finish() -> None:
            self._send_ack(rh, final=True)
            # Keep re-ACKing briefly in case the final ACK is lost.
            wire: list[bytes] = []
            self._finish(
                ticket, [rh], lambda: self._send_final_ack(rh, wire),
                self.config.rto_rtts * self.rtt,
            )

        interval = ACK_INTERVAL_RTTS * self.rtt
        self._watch(ticket, rh, interval, on_poll, finish)

    def _send_ack(
        self, rh: RecvHandle, last: list | None = None, *, final: bool = False
    ) -> None:
        """One ACK of ``rh``'s bitmap.  A poll passes ``last``, its memo of
        the last trailer-free ACK: the chunk bitmap only gains bits, so an
        unchanged count with no CE mark since is the same ACK, byte for
        byte, and its wire bytes go out again."""
        bitmap = rh.bitmap()
        marked = rh.ce_packets - rh.ce_echoed
        if last is not None and marked == 0 and last[0] == bitmap.count():
            self.ctrl.send_bytes(last[1])
            self._m_acks_sent.inc()
            return
        cumulative = bitmap.cumulative()
        window_start = (cumulative // 8) * 8
        window = b""
        if not final and cumulative < rh.nchunks:  # as much as fits, or less
            window = bitmap.to_bytes(cumulative, self.config.ack_window_bytes)
        # ECN echo (repro.cc): ship the CE delta since the last echo.  A
        # mark-free period keeps the cursors so the fraction is preserved,
        # and omits the trailer so the wire bytes match the pre-cc encoding.
        seen = rh.packets_seen - rh.seen_echoed
        if marked > 0:
            rh.ce_echoed = rh.ce_packets
            rh.seen_echoed = rh.packets_seen
        else:
            marked = seen = 0
        _, raw = self.ctrl.send(
            Ack(rh.seq, cumulative, window_start, window, marked, seen)
        )
        if last is not None and not marked:
            last[:] = bitmap.count(), raw
        self._m_acks_sent.inc()

    def _send_final_ack(self, rh: RecvHandle, wire: list[bytes]) -> None:
        """A grace re-ACK, ``Ack(seq, cumulative=nchunks)`` every time: packed
        once per receive, its wire bytes kept in ``wire`` and resent."""
        if wire:
            self.ctrl.send_bytes(wire[0])
        else:
            wire.append(self.ctrl.send(Ack(rh.seq, rh.nchunks))[1])
        self._m_acks_sent.inc()

    def _send_gap_nacks(self, rh: RecvHandle, last_nack: np.ndarray) -> None:
        present = rh.bitmap().as_array()
        set_idx = np.flatnonzero(present)
        if set_idx.size == 0:
            return
        highest = int(set_idx[-1])
        now = self.sim.now
        holdoff = NACK_HOLDOFF_RTTS * self.rtt
        gaps = np.flatnonzero(
            ~present[:highest] & (now - last_nack[:highest] > holdoff)
        )
        if gaps.size == 0:
            return
        nack, _ = self.ctrl.send(SrNack(rh.seq, tuple(gaps.tolist())))
        last_nack[list(nack.chunks)] = now  # what fit the datagram
        self._m_nacks_sent.inc()
        if self._trace.enabled:
            self._trace.instant(
                "gap_nack", cat="sr", track=self._track,
                seq=rh.seq, chunks=len(nack.chunks),
            )


class SrBackedReceiver(Receiver):
    """A receiver that hands a message to SR when its sender resumes it.

    The receiving half of :class:`SrBacked`: the first ``ResumeReq`` for a
    served message calls the policy's ``_hand_over`` exactly once, which
    ends in :meth:`SrReceiver.adopt` on the lazily built backstop.
    """

    _sr: SrReceiver | None = None

    def _backstop_config(self) -> SrConfig:
        """Policy hook: how the SR phase behind this scheme is tuned."""
        return SrConfig(nack_enabled=True)

    def _backstop(self) -> SrReceiver:
        if self._sr is None:
            self._sr = SrReceiver(
                self.qp, self.ctrl, self._backstop_config(), rtt=self.rtt
            )
        return self._sr

    def abandon(self, ticket: ReceiveTicket) -> None:
        super().abandon(ticket)
        if self._sr is not None:  # the message may have been handed over
            self._sr.abandon(ticket)

    def _on_ctrl(self, msg) -> None:
        if isinstance(msg, ResumeReq):
            # Popped: from here on the backstop owns the message (its grant
            # table answers duplicates and follow-up attempts).
            entry = self._serving.pop(msg.msg_seq, None)
            if entry is not None:
                self._hand_over(msg, *entry)

    def _hand_over(self, msg: ResumeReq, ticket: ReceiveTicket, rh: RecvHandle) -> None:
        """Policy hook: salvage what arrived, then ``_backstop().adopt``.

        Default: a single-buffer receive, whose live bitmap is the seed.
        """
        self._backstop().adopt(msg, ticket, [rh])


register_scheme("sr", SrSender, SrReceiver)
register_scheme("sr_nack", SrSender, SrReceiver, nack_enabled=True)
