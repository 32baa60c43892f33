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
from repro.reliability.messages import Ack, SrNack
from repro.sdr.handles import RecvHandle
from repro.sdr.qp import SdrQp
from repro.telemetry.trace import flow_key

#: Receiver bitmap poll / ACK period in RTTs (GBN's too).
ACK_INTERVAL_RTTS = 0.25
#: Minimum spacing (in RTTs) between NACKs for the same chunk.
NACK_HOLDOFF_RTTS = 1.0
#: Cap of the adaptive and backed-off RTO, in RTTs.
MAX_RTO_RTTS = 64.0
#: Cap on consecutive RTO doublings (``rto_backoff``).
BACKOFF_CAP = 6
#: RTO rounds without ACK progress after which a write with a resumption
#: left resumes: the receiver is not answering, so it is asked for its
#: bitmap instead of being sent the same chunks again.
STALL_RTO_ROUNDS = 3
#: The cumulative of the ACK answering a resume request for a message this
#: receiver finished: past its grace window it no longer knows the size,
#: and a sender clips a cumulative to its own chunk count.
FINISHED = 2**32 - 1


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
    #: Resumptions in place allowed per message (0 = disabled, the seed
    #: behaviour).  When the retry budget is exhausted the write keeps its
    #: slot, asks the receiver for its bitmap and re-sends only what it
    #: lacks, with a fresh budget (docs/robustness.md).
    max_resumptions: int = field(default=0, metadata=bound(ge=0))


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
        #: True once the write was revived from a resumption.
        self.resumed = False
        #: Retransmitted chunks waiting for wire injection before their
        #: RTO is (re)armed, in post order; while non-empty, one
        #: ``_restamp`` drains it.
        self.restamp: deque[tuple[int, int]] = deque()
        #: The last ``Ack`` applied here.  The control path hands a repeated
        #: datagram over as the same object, and it confirms nothing new.
        self.last_ack: Ack | None = None
        #: RTO retransmissions since the last ACK progress.
        self.silent_rtos = 0

    @property
    def complete(self) -> bool:
        return not self.unacked

    @property
    def delivered(self) -> np.ndarray:
        raw = self.unacked.to_bytes(-(-self.nchunks // 8), "little")
        return ~np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8), count=self.nchunks, bitorder="little"
        ).astype(bool)


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
        #: Optional :class:`repro.cc.Pacer` fed RTT samples, ECN echoes and
        #: loss signals (see :meth:`attach_cc`).
        self.cc = None
        #: The retransmission clock: ``_rto_timer`` expires at the earliest
        #: chunk deadline of any write; ``_wake`` is a kick on its way
        #: (``_kick_timer``), allowed once per ``_retime``.  ``_horizon`` is
        #: the earliest deadline ``_retime`` last read, while it still is
        #: one (-inf once a deadline may have moved without a kick).
        self._rto_timer = self.sim.timer(self._on_rto)
        self._wake = self.sim.timer(self._on_wake)
        self._kickable = False
        self._horizon = -np.inf
        self.sim.call_in(0.0, self._retime)
        self._m_rto_fires = self._scope.counter("rto_fires")
        self._m_retransmitted = self._scope.counter("retransmitted_chunks")
        self._m_nacks_received = self._scope.counter("nacks_received")
        for name in (
            "resumes_started", "resumes_completed", "resume_failures",
            "resumed_chunks_skipped", "resumed_chunks_retransmitted",
        ):
            self._count(name, 0)

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
        super().attach_recovery(recovery)
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

    # -- the write path ---------------------------------------------------------------

    def _start(self, state: _SendState) -> None:
        """Inject every chunk, each RTO stamped as it leaves the NIC."""
        self._post(state)
        self.sim.call_in(0.0, self._inject_chunks, state)

    def _escalate(self, state: WriteState, reason: str) -> bool:
        self._horizon = -np.inf  # its deadlines left with it
        return self._resume(state)

    def _resumed(self, state: _SendState) -> None:
        """Revived: the old RTO deadlines are void, and once the receiver's
        ACK is applied a pass re-sends what it still lacks."""
        state.resumed = True
        state.silent_rtos = 0
        state.deadline.fill(np.inf)
        self.sim.call_in(0.0, self._inject_chunks, state)

    # -- injection -------------------------------------------------------------------

    def _inject_chunks(self, state: _SendState) -> None:
        """First pass: every chunk; resumed pass: only what the receiver's
        answer left unacknowledged.

        Each chunk's RTO is stamped as it leaves the NIC.
        """
        if state.resumed:
            self._count(
                "resumed_chunks_skipped", state.nchunks - state.unacked.bit_count()
            )
            # Re-checked at send time: a chunk may be acked while earlier
            # ones are pacing.
            indices = (
                i for i in mask_bits(state.unacked) if state.unacked >> i & 1
            )
        else:
            indices = range(state.nchunks)

        def on_wire(index: int) -> None:
            if state.resumed:
                self._count("resumed_chunks_retransmitted")
            self._arm(state, index)

        self._inject(
            state, indices, on_wire, lambda: self._maybe_finish(state),
            first=not state.resumed,
        )

    def _arm(self, state: _SendState, index: int, *, kick: bool = True) -> None:
        """Chunk ``index`` is on the wire: start its RTO clock from now.

        A kick re-reads the horizon.  A deadline at or after it, for a
        chunk that did not hold it, cannot move it: the clock is re-armed
        there in place, the ``(time, seq)`` the kick's ``_retime`` would
        have pushed, without the kick's dispatch and scan.
        """
        if state.unacked >> index & 1:
            now = self.sim.now
            horizon = self._horizon
            held = state.deadline[index] == horizon
            deadline = state.deadline[index] = now + self.rto
            state.sent_at[index] = now
            if not kick:
                return
            if self._kickable and not held and deadline >= horizon > now:
                self._rto_timer.arm(horizon - now)
            else:
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
        # Either way the deadline moves unkicked: the horizon is re-read.
        self._horizon = -np.inf
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
                self._horizon = horizon
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
                if (
                    state.ticket.resumptions < self.config.max_resumptions
                    and state.silent_rtos
                    >= STALL_RTO_ROUNDS * state.unacked.bit_count()
                ):
                    self._fail(
                        state, f"no ACK progress in {STALL_RTO_ROUNDS} RTO rounds"
                    )
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
            state.silent_rtos += 1
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

    # -- control-path handling ----------------------------------------------------------

    def _on_ctrl(self, msg) -> None:
        if isinstance(msg, Ack):
            state = self._states.get(msg.msg_seq)
            if state is None and self._resuming:
                state = self._revive(msg.msg_seq)
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
                state.silent_rtos = 0
                state.unacked ^= new
                self._horizon = -np.inf  # its holder may be acked
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

    def _maybe_finish(self, state: _SendState) -> None:
        if state.complete and self._states.pop(state.hdl.seq, None) is not None:
            self._complete_write(
                state, retransmits=state.ticket.retransmitted_chunks
            )
            self._kick_timer()


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
        self._m_acks_sent = self._scope.counter("acks_sent")
        self._m_nacks_sent = self._scope.counter("nacks_sent")
        self._count("resumes_granted", 0)

    # -- answering a resumption ------------------------------------------------------

    def _answer_serving(self, ticket: ReceiveTicket, rh: RecvHandle) -> None:
        self._send_ack(rh)

    def _answer_finished(self, seq: int) -> None:
        self.ctrl.send(Ack(seq, FINISHED))
        self._m_acks_sent.inc()

    # -- serve loop ----------------------------------------------------------------------

    def _serve(self, ticket: ReceiveTicket, rh: RecvHandle) -> None:
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


register_scheme("sr", SrSender, SrReceiver)
register_scheme("sr_nack", SrSender, SrReceiver, nack_enabled=True)
