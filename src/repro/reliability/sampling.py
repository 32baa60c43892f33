"""Receiver-driven availability-sampling reliability over the SDR bitmap.

A third protocol on the SDR substrate (beyond SR and EC): instead of
acknowledging every chunk, the *receiver* periodically draws deterministic
RNG-substream probes from its chunk bitmap, estimates per-segment
availability, and sends a compact :class:`~repro.reliability.messages.
RepairReq` (segment id + missing-chunk bitmap window) only when sampling
flags a gap.  The sender stays silent-running: it injects the message once,
then retransmits exactly the chunks repair requests name.  A single
:class:`~repro.reliability.messages.Done` (re-sent through a short grace
window) closes the write, so the steady-state control traffic is a handful
of datagrams per message instead of an ACK every RTT/4 -- the
ACK-traffic-reduction trade the planetary-scale WAN regimes of Figures
2/9/10 want.

Liveness is layered:

* probe rounds only consider segments at or below the receive frontier
  (the highest chunk seen), so in-flight tails are not misread as loss;
* a stalled bitmap or every ``full_scan_every``-th round triggers an exact
  full scan, bounding detection latency deterministically;
* the sender arms an idle watchdog and a per-message retransmit budget;
  exhausting either hands the message to the existing bitmap-driven
  resumption machinery (``repro.recovery``) -- a Selective Repeat phase
  over a fresh slot finishes the transfer rather than failing it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigError, DeliveryError
from repro.ec.sampling import draw_probes
from repro.recovery.resume import ResumeToken
from repro.reliability.base import (
    ControlPath,
    ReceiveTicket,
    WriteTicket,
    wait_injected,
)
from repro.reliability.messages import Done, RepairReq, ResumeReq
from repro.reliability.sr import SrConfig, SrReceiver, SrSender
from repro.sdr.handles import RecvHandle, SendHandle
from repro.sdr.qp import SdrQp, SdrRecvWr, SdrSendWr
from repro.sim.rng import RngStreams
from repro.telemetry.trace import flow_key
from repro.verbs.mr import MemoryRegion


@dataclass(frozen=True)
class SamplingConfig:
    """Tuning knobs for the availability-sampling layer."""

    #: Chunks per availability segment (probe and repair granularity).
    segment_chunks: int = 64
    #: Random probes drawn per incomplete segment per sampling round; the
    #: round misses a g-gap with probability ``C(n-g, s) / C(n, s)``
    #: (:mod:`repro.ec.sampling`).
    probes_per_segment: int = 8
    #: Receiver sampling period in RTTs (SR ACKs every 0.25 RTT; sampling
    #: checks 4x less often and mostly stays silent).
    sample_interval_rtts: float = 1.0
    #: Every Nth round is an exact full bitmap scan (0 disables the valve;
    #: a stalled bitmap always forces one regardless).
    full_scan_every: int = 4
    #: Seed of the receiver's deterministic probe RNG substream family.
    probe_seed: int = 0
    #: Minimum spacing (in RTTs) between retransmissions of one chunk
    #: (absorbs duplicate repair requests crossing in flight).
    repair_holdoff_rtts: float = 1.0
    #: How long (in RTTs) the receiver keeps re-sending Done after
    #: completion, to survive final-datagram drops.
    grace_rtts: float = 10.0
    #: Sender watchdog period in RTTs: a window with no control-path signal
    #: for an in-flight write is one idle strike.
    idle_timeout_rtts: float = 8.0
    #: Idle strikes before the sender escalates to resumption / failure.
    max_idle_timeouts: int = 8
    #: Per-message repair retransmission budget (None = unlimited).
    max_message_retransmits: int | None = None
    #: Receiver-side liveness valve: give up serving an incomplete message
    #: after this many RTTs (None = wait forever, the default).
    serve_deadline_rtts: float | None = None
    #: Bitmap-driven resumptions allowed per message (0 = disabled).  On
    #: watchdog or budget exhaustion both sides re-post the remainder under
    #: a fresh slot and a Selective Repeat phase finishes the message
    #: (``repro.recovery``).
    max_resumptions: int = 0

    def __post_init__(self) -> None:
        if self.segment_chunks <= 0:
            raise ConfigError(
                f"segment_chunks must be > 0, got {self.segment_chunks}"
            )
        if self.probes_per_segment <= 0:
            raise ConfigError(
                f"probes_per_segment must be > 0, got {self.probes_per_segment}"
            )
        if self.sample_interval_rtts <= 0:
            raise ConfigError("sample_interval_rtts must be > 0")
        if self.full_scan_every < 0:
            raise ConfigError(
                f"full_scan_every must be >= 0, got {self.full_scan_every}"
            )
        if self.repair_holdoff_rtts < 0:
            raise ConfigError("repair_holdoff_rtts must be >= 0")
        if self.grace_rtts < 0:
            raise ConfigError("grace_rtts must be >= 0")
        if self.idle_timeout_rtts <= 0:
            raise ConfigError("idle_timeout_rtts must be > 0")
        if self.max_idle_timeouts <= 0:
            raise ConfigError("max_idle_timeouts must be > 0")
        if self.max_message_retransmits is not None and (
            self.max_message_retransmits <= 0
        ):
            raise ConfigError("max_message_retransmits must be > 0 or None")
        if self.serve_deadline_rtts is not None and self.serve_deadline_rtts <= 0:
            raise ConfigError("serve_deadline_rtts must be > 0 or None")
        if self.max_resumptions < 0:
            raise ConfigError(
                f"max_resumptions must be >= 0, got {self.max_resumptions}"
            )


class _SamplingSendState:
    """Per-message sender bookkeeping (no per-chunk ACK state by design)."""

    def __init__(self, ticket: WriteTicket, hdl: SendHandle, nchunks: int):
        self.ticket = ticket
        self.hdl = hdl
        self.nchunks = nchunks
        #: Simulated time each chunk last hit the wire (-inf = never).
        self.last_sent = np.full(nchunks, -np.inf)
        self.attempts = np.zeros(nchunks, dtype=np.int64)
        self.inject_done = False
        self.done = False
        #: Last control-path signal for this write (feeds the watchdog).
        self.last_activity = 0.0
        #: Retry budget measures from here (fresh per attempt).
        self.retx_base = ticket.retransmitted_chunks
        self.payload: bytes | None = None


class SamplingSender:
    """Sender endpoint of the availability-sampling protocol."""

    def __init__(
        self,
        qp: SdrQp,
        ctrl: ControlPath,
        config: SamplingConfig | None = None,
        *,
        rtt: float | None = None,
    ):
        self.qp = qp
        self.sim = qp.sim
        self.ctrl = ctrl
        self.config = config if config is not None else SamplingConfig()
        self.rtt = rtt if rtt is not None else qp.ctx.channel_rtt_hint()
        ctrl.on_message(self._on_ctrl)
        self._states: dict[int, _SamplingSendState] = {}
        #: Internal SR sender running resumed (backstop) phases; lazy so the
        #: steady-state sampling run never constructs SR state.
        self._sr: SrSender | None = None
        #: Optional :class:`repro.recovery.PlaneRecovery` (see SR/EC).
        self.recovery = None
        scope = self.sim.telemetry.metrics.scope(
            f"sampling.{qp.ctx.device.name}"
        )
        self._m_writes_completed = scope.counter("writes_completed")
        self._m_writes_failed = scope.counter("writes_failed")
        self._m_repair_reqs = scope.counter("repair_requests_received")
        self._m_repaired_chunks = scope.counter("repaired_chunks")
        self._m_idle_strikes = scope.counter("idle_strikes")
        self._h_write_seconds = scope.histogram("write_seconds")
        self._trace = self.sim.telemetry.trace
        self._track = f"sampling.{qp.ctx.device.name}"

    # -- recovery-plane hooks ---------------------------------------------------------

    def attach_recovery(self, recovery) -> None:
        """Feed loss signals of the SR backstop into a plane monitor."""
        self.recovery = recovery
        if self._sr is not None and recovery is not None:
            self._sr.attach_recovery(recovery)

    def _sr_sender(self) -> SrSender:
        if self._sr is None:
            # The backstop must be sturdier than the mode that escalated to
            # it: NACK fast path, adaptive RTO with backoff, and no repair
            # budget (the sampling budget caps the cheap phase; SR's own
            # chunk-retransmit valve still bounds pathological channels).
            self._sr = SrSender(
                self.qp,
                self.ctrl,
                SrConfig(
                    nack_enabled=True,
                    adaptive_rto=True,
                    rto_backoff=True,
                    max_resumptions=self.config.max_resumptions,
                ),
                rtt=self.rtt,
            )
            if self.recovery is not None:
                self._sr.attach_recovery(self.recovery)
        return self._sr

    def resume(self, token: ResumeToken, payload: bytes | None = None) -> WriteTicket:
        """Resume a failed sampling write: SR remainder under a fresh slot."""
        return self._sr_sender().resume(token, payload)

    def _try_resume(self, state: _SamplingSendState, reason: str) -> bool:
        cfg = self.config
        if cfg.max_resumptions <= 0:
            return False
        if state.ticket.resumptions >= cfg.max_resumptions:
            return False
        self._states.pop(state.hdl.seq, None)
        if not state.hdl.ended:
            self.qp.send_stream_end(state.hdl)
        # The sampling sender keeps no delivery bitmap (that is the point);
        # the receiver's grant bitmap is authoritative, as in EC resumption.
        token = ResumeToken(
            msg_seq=state.ticket.seq,
            length=state.ticket.length,
            total_chunks=state.nchunks,
            bitmap=b"",
            reason=reason,
            attempt=state.ticket.resumptions + 1,
            protocol="sampling",
        )
        self._sr_sender()._start_resume(token, state.ticket, state.payload)
        return True

    # -- public API -------------------------------------------------------------------

    def write(self, length: int, payload: bytes | None = None) -> WriteTicket:
        """Reliably write ``length`` bytes; repairs are receiver-driven."""
        nchunks = self.qp.config.chunks_in(length)
        hdl = self.qp.send_stream_start(SdrSendWr(length=length, payload=payload))
        ticket = WriteTicket(
            seq=hdl.seq, length=length, start_time=self.sim.now,
            done=self.sim.event(),
        )
        state = _SamplingSendState(ticket, hdl, nchunks)
        state.payload = payload
        state.last_activity = self.sim.now
        self._states[hdl.seq] = state
        if self._trace.enabled:
            self._trace.instant(
                "msg_post", cat="sampling", track=self._track,
                msg=hdl.seq, bytes=length, chunks=nchunks,
            )
        self.sim.process(self._inject_all(state))
        self.sim.process(self._watchdog(state))
        return ticket

    # -- injection --------------------------------------------------------------------

    def _chunk_range(self, index: int, length: int) -> tuple[int, int]:
        cb = self.qp.config.chunk_bytes
        off = index * cb
        return off, min(cb, length - off)

    def _send_chunk(
        self, state: _SamplingSendState, index: int, *, attempt: int = 0
    ) -> None:
        off, clen = self._chunk_range(index, state.ticket.length)
        piece = None
        if state.payload is not None:
            piece = state.payload[off : off + clen]
        self.qp.send_stream_continue(state.hdl, off, clen, piece, attempt=attempt)

    def _inject_all(self, state: _SamplingSendState):
        """Wire-paced one-shot injection; stamps per-chunk send times."""
        ppc = self.qp.config.packets_per_chunk
        for index in range(state.nchunks):
            if (
                state.done
                or state.ticket.failed
                or state.hdl.seq not in self._states
            ):
                break  # completed, failed, or escalated to resumption
            self._send_chunk(state, index)
            target = min((index + 1) * ppc, state.hdl.packets_posted)
            yield from wait_injected(self.qp, state.hdl, target)
            state.last_sent[index] = self.sim.now
        state.inject_done = True
        state.last_activity = self.sim.now

    # -- liveness ---------------------------------------------------------------------

    def _watchdog(self, state: _SamplingSendState):
        """Escalate to resumption when the control path goes silent."""
        idle = self.config.idle_timeout_rtts * self.rtt
        strikes = 0
        while True:
            yield self.sim.timeout(idle)
            if (
                state.done
                or state.ticket.failed
                or state.hdl.seq not in self._states
            ):
                return
            if not state.inject_done:
                continue  # first transmission still pacing out
            if self.sim.now - state.last_activity >= idle:
                strikes += 1
                self._m_idle_strikes.inc()
                if self._trace.enabled:
                    self._trace.instant(
                        "sampling_idle", cat="sampling", track=self._track,
                        msg=state.ticket.seq, strikes=strikes,
                    )
                if strikes >= self.config.max_idle_timeouts:
                    self._fail(
                        state,
                        f"write seq={state.ticket.seq} saw no receiver "
                        f"signal for {strikes} idle windows",
                    )
                    return
            else:
                strikes = 0

    def _budget_exhausted(self, state: _SamplingSendState) -> bool:
        budget = self.config.max_message_retransmits
        spent = state.ticket.retransmitted_chunks - state.retx_base
        if budget is not None and spent >= budget:
            self._fail(
                state,
                f"write seq={state.ticket.seq} exceeded repair "
                f"retransmit budget ({budget})",
            )
            return True
        return False

    def _fail(self, state: _SamplingSendState, reason: str) -> None:
        if self._try_resume(state, reason):
            return
        self._m_writes_failed.inc()
        state.ticket.failed = True
        self._states.pop(state.hdl.seq, None)
        if not state.hdl.ended:
            self.qp.send_stream_end(state.hdl)
        if self._trace.enabled:
            self._trace.instant(
                "write_failed", cat="sampling", track=self._track,
                msg=state.ticket.seq, seq=state.ticket.seq,
                total=state.nchunks,
            )
        if not state.ticket.done.triggered:
            state.ticket.done.fail(
                DeliveryError(
                    reason,
                    delivered_chunks=0,  # sender-side unknown by design
                    total_chunks=state.nchunks,
                    bitmap=b"",
                )
            )

    # -- control-path handling --------------------------------------------------------

    def _on_ctrl(self, msg) -> None:
        if isinstance(msg, RepairReq):
            state = self._states.get(msg.msg_seq)
            if state is None:
                return
            state.last_activity = self.sim.now
            self._m_repair_reqs.inc()
            state.ticket.nacks_received += 1
            now = self.sim.now
            holdoff = self.config.repair_holdoff_rtts * self.rtt
            for index in msg.missing_chunks(state.nchunks):
                if not np.isfinite(state.last_sent[index]):
                    continue  # still pacing out the first transmission
                if now - state.last_sent[index] < holdoff:
                    continue  # a repair for this chunk is already in flight
                if self._budget_exhausted(state):
                    return
                state.attempts[index] += 1
                attempt = int(state.attempts[index])
                if self._trace.enabled:
                    self._trace.instant(
                        "repair_retx", cat="sampling", track=self._track,
                        msg=state.ticket.seq, chunk=index, attempt=attempt,
                        segment=msg.segment,
                    )
                    self._trace.flow_start(
                        "retx", cat="sampling", track=self._track,
                        flow_id=flow_key(state.ticket.seq, index, attempt),
                        msg=state.ticket.seq, chunk=index, attempt=attempt,
                    )
                self._send_chunk(state, index, attempt=attempt)
                state.last_sent[index] = now
                state.ticket.retransmitted_chunks += 1
                self._m_repaired_chunks.inc()
        elif isinstance(msg, Done):
            state = self._states.pop(msg.msg_seq, None)
            if state is None:
                return
            state.done = True
            if not state.hdl.ended:
                self.qp.send_stream_end(state.hdl)
            state.ticket._finish(self.sim.now)
            self._m_writes_completed.inc()
            self._h_write_seconds.observe(
                self.sim.now - state.ticket.start_time
            )
            if self._trace.enabled:
                self._trace.complete(
                    "sampling_write", cat="sampling", track=self._track,
                    start=state.ticket.start_time, msg=state.ticket.seq,
                    seq=state.ticket.seq, bytes=state.ticket.length,
                    retransmits=state.ticket.retransmitted_chunks,
                )


class SamplingReceiver:
    """Receiver endpoint of the availability-sampling protocol."""

    def __init__(
        self,
        qp: SdrQp,
        ctrl: ControlPath,
        config: SamplingConfig | None = None,
        *,
        rtt: float | None = None,
    ):
        self.qp = qp
        self.sim = qp.sim
        self.ctrl = ctrl
        self.config = config if config is not None else SamplingConfig()
        self.rtt = rtt if rtt is not None else qp.ctx.channel_rtt_hint()
        ctrl.on_message(self._on_ctrl)
        #: Deterministic probe substreams, one per served slot.
        self._rngs = RngStreams(self.config.probe_seed)
        #: Receive state by original seq, for resumption grants.
        self._serving: dict[int, tuple[ReceiveTicket, RecvHandle]] = {}
        #: Messages already handed to the SR resume machinery.
        self._resuming: set[int] = set()
        #: Internal SR receiver serving resumed phases (lazy).
        self._sr: SrReceiver | None = None
        scope = self.sim.telemetry.metrics.scope(
            f"sampling.{qp.ctx.device.name}"
        )
        self._m_sample_rounds = scope.counter("sample_rounds")
        self._m_probes_drawn = scope.counter("probes_drawn")
        self._m_repair_reqs = scope.counter("repair_requests_sent")
        self._m_full_scans = scope.counter("full_scans")
        self._m_dones_sent = scope.counter("dones_sent")
        self._trace = self.sim.telemetry.trace
        self._track = f"sampling.{qp.ctx.device.name}"
        self._rtrack = f"recovery.{qp.ctx.device.name}"

    @property
    def repair_requests_sent(self) -> int:
        return self._m_repair_reqs.value

    # -- public API -------------------------------------------------------------------

    def post_receive(
        self, mr: MemoryRegion, length: int, mr_offset: int = 0
    ) -> ReceiveTicket:
        """Post a receive buffer; availability sampling runs to completion."""
        rh = self.qp.recv_post(
            SdrRecvWr(mr=mr, length=length, mr_offset=mr_offset)
        )
        ticket = ReceiveTicket(
            seq=rh.seq, length=length, done=self.sim.event(), recv_handles=[rh]
        )
        self._serving[rh.seq] = (ticket, rh)
        self.sim.process(self._serve(ticket, rh))
        return ticket

    # -- resumption grants (repro.recovery) ---------------------------------------------

    def _sr_receiver(self) -> SrReceiver:
        if self._sr is None:
            self._sr = SrReceiver(
                self.qp,
                self.ctrl,
                SrConfig(
                    nack_enabled=True,
                    serve_deadline_rtts=self.config.serve_deadline_rtts,
                ),
                rtt=self.rtt,
            )
        return self._sr

    def _on_ctrl(self, msg) -> None:
        if not isinstance(msg, ResumeReq):
            return
        entry = self._serving.get(msg.msg_seq)
        if entry is None or msg.msg_seq in self._resuming:
            # Unknown here, or the SR machinery already owns the message
            # (its grant table answers duplicates and follow-up attempts).
            return
        self._resuming.add(msg.msg_seq)
        self._grant_resume(msg, *entry)

    def _grant_resume(
        self, msg: ResumeReq, ticket: ReceiveTicket, rh: RecvHandle
    ) -> None:
        """Abandon the sampled slot, re-post pre-seeded, grant SR-style."""
        from repro.reliability.messages import ResumeAck

        delivered = rh.bitmap().as_array().astype(bool).copy()
        if not rh.completed and not rh.all_chunks_received():
            self.qp.recv_abandon(rh)
        rh2 = self.qp.recv_post(
            SdrRecvWr(mr=rh.mr, length=rh.length, mr_offset=rh.mr_offset),
            preset_chunks=delivered,
        )
        ticket.resumptions += 1
        ticket.recv_handles.append(rh2)
        srr = self._sr_receiver()
        ack = ResumeAck(
            msg_seq=msg.msg_seq,
            new_seq=rh2.seq,
            total_chunks=rh2.nchunks,
            attempt=msg.attempt,
            bitmap=np.packbits(delivered).tobytes(),
        )
        srr._serving[msg.msg_seq] = (ticket, rh2)
        srr._resume_grants[msg.msg_seq] = (msg.attempt, ack)
        srr._m_resumes_granted.inc()
        if self._trace.enabled:
            self._trace.instant(
                "resume_grant", cat="recovery", track=self._rtrack,
                msg=msg.msg_seq, new_msg=rh2.seq, attempt=msg.attempt,
                delivered=int(delivered.sum()), total=rh2.nchunks,
            )
        self.ctrl.send(ack)
        self.sim.process(srr._serve(ticket, rh2))

    # -- sampling serve loop ------------------------------------------------------------

    def _segments(self, nchunks: int) -> int:
        return -(-nchunks // self.config.segment_chunks)

    def _segment_range(self, seg: int, nchunks: int) -> tuple[int, int]:
        start = seg * self.config.segment_chunks
        return start, min(self.config.segment_chunks, nchunks - start)

    def _serve(self, ticket: ReceiveTicket, rh: RecvHandle):
        cfg = self.config
        interval = cfg.sample_interval_rtts * self.rtt
        deadline = (
            None
            if cfg.serve_deadline_rtts is None
            else self.sim.now + cfg.serve_deadline_rtts * self.rtt
        )
        nseg = self._segments(rh.nchunks)
        seg_done = np.zeros(nseg, dtype=bool)
        rng = self._rngs.get(f"probe.{self.qp.ctx.device.name}.{rh.seq}")
        rounds = 0
        last_count = -1
        while not rh.all_chunks_received():
            if rh.completed:
                return  # abandoned by a resumption grant
            if deadline is not None and self.sim.now >= deadline:
                delivered = rh.bitmap().as_array()
                if not ticket.done.triggered:
                    ticket.done.fail(
                        DeliveryError(
                            f"receive seq={ticket.seq} incomplete at serve "
                            f"deadline",
                            delivered_chunks=int(delivered.sum()),
                            total_chunks=rh.nchunks,
                            bitmap=np.packbits(delivered).tobytes(),
                        )
                    )
                return
            yield self.sim.any_of(
                [self.sim.timeout(interval), rh.wait_all_chunks()]
            )
            if rh.completed and not rh.all_chunks_received():
                return  # abandoned while waiting
            if rh.all_chunks_received():
                break
            present = rh.bitmap().as_array()
            count = int(present.sum())
            if count == 0:
                continue  # nothing on the wire yet: sampling has no signal
            rounds += 1
            # A stalled bitmap means losses, not in-flight data: scan
            # exactly.  Every Nth round scans too (deterministic valve).
            full = (count == last_count) or (
                cfg.full_scan_every > 0 and rounds % cfg.full_scan_every == 0
            )
            last_count = count
            frontier = int(np.flatnonzero(present)[-1])
            flagged: list[int] = []
            probes = 0
            for seg in range(nseg):
                if seg_done[seg]:
                    continue
                start, seg_len = self._segment_range(seg, rh.nchunks)
                seg_present = present[start : start + seg_len]
                if seg_present.all():
                    seg_done[seg] = True
                    continue
                if full:
                    flagged.append(seg)
                    continue
                if start + seg_len - 1 > frontier:
                    continue  # above the receive frontier: still in flight
                idx = draw_probes(
                    rng, seg_len, min(cfg.probes_per_segment, seg_len)
                )
                probes += int(idx.size)
                if not seg_present[idx].all():
                    flagged.append(seg)
            self._m_sample_rounds.inc()
            self._m_probes_drawn.inc(probes)
            if full:
                self._m_full_scans.inc()
            if self._trace.enabled:
                self._trace.instant(
                    "sample_probe", cat="sampling", track=self._track,
                    msg=rh.seq, round=rounds, probes=probes,
                    flagged=len(flagged), full=full,
                )
            for seg in flagged:
                self._send_repair(rh, seg, present)
        # Complete: free SDR resources, then re-send Done through the grace
        # window in case the final datagram drops.
        self._send_done(rh.seq)
        rh.complete()
        ticket._finish(self.sim.now)
        grace_end = self.sim.now + cfg.grace_rtts * self.rtt
        while self.sim.now < grace_end:
            yield self.sim.timeout(2 * self.rtt)
            self._send_done(rh.seq)

    def _send_repair(self, rh: RecvHandle, seg: int, present: np.ndarray) -> None:
        start, seg_len = self._segment_range(seg, rh.nchunks)
        missing = ~present[start : start + seg_len]
        window = np.packbits(missing, bitorder="little").tobytes()
        max_window = self.qp.config.mtu_bytes - 32
        window = window[:max_window]
        self.ctrl.send(
            RepairReq(
                msg_seq=rh.seq, segment=seg, window_start=start,
                missing=window,
            )
        )
        self._m_repair_reqs.inc()
        if self._trace.enabled:
            self._trace.instant(
                "repair_req", cat="sampling", track=self._track,
                msg=rh.seq, segment=seg, missing=int(missing.sum()),
            )

    def _send_done(self, seq: int) -> None:
        self.ctrl.send(Done(msg_seq=seq))
        self._m_dones_sent.inc()
