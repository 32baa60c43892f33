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
* a stalled bitmap or every ``FULL_SCAN_EVERY``-th round triggers an exact
  full scan, bounding detection latency deterministically;
* the sender arms an idle watchdog and a per-message retransmit budget;
  exhausting either resumes the write in place (docs/robustness.md): the
  receiver answers a resume request with a repair request for every
  incomplete segment, and the repair loop finishes the transfer rather
  than failing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.common.config import Bounded, bound
from repro.ec.sampling import draw_probes
from repro.ec.segmented import SegmentLayout
from repro.reliability.base import (
    ControlPath,
    Receiver,
    ReceiveTicket,
    Sender,
    WriteState,
    WriteTicket,
    register_scheme,
)
from repro.reliability.messages import Done, RepairReq
from repro.sdr.handles import RecvHandle
from repro.sdr.qp import SdrQp
from repro.sim.rng import RngStreams
from repro.telemetry.trace import flow_key

#: Chunks per availability segment (probe and repair granularity).
SEGMENT_CHUNKS = 64
#: Random probes drawn per incomplete segment per sampling round; the
#: round misses a g-gap with probability ``C(n-g, s) / C(n, s)``
#: (:mod:`repro.ec.sampling`).
PROBES_PER_SEGMENT = 8
#: Every Nth round is an exact full bitmap scan (a stalled bitmap always
#: forces one regardless).
FULL_SCAN_EVERY = 4
#: Seed of the receiver's deterministic probe RNG substream family.
PROBE_SEED = 0


@dataclass(frozen=True)
class SamplingConfig(Bounded):
    """Tuning knobs for the availability-sampling layer."""

    #: Receiver sampling period in RTTs (SR ACKs every 0.25 RTT; sampling
    #: checks 4x less often and mostly stays silent).
    sample_interval_rtts: float = field(default=1.0, metadata=bound(gt=0))
    #: Minimum spacing (in RTTs) between retransmissions of one chunk
    #: (absorbs duplicate repair requests crossing in flight).
    repair_holdoff_rtts: float = field(default=1.0, metadata=bound(ge=0))
    #: Sender watchdog period in RTTs: a window with no control-path signal
    #: for an in-flight write is one idle strike.
    idle_timeout_rtts: float = field(default=8.0, metadata=bound(gt=0))
    #: Idle strikes before the sender escalates to resumption / failure.
    max_idle_timeouts: int = field(default=8, metadata=bound(gt=0))
    #: Per-message repair retransmission budget (None = unlimited).
    max_message_retransmits: int | None = field(
        default=None, metadata=bound(gt=0, optional=True)
    )
    #: Receiver-side liveness valve: give up serving an incomplete message
    #: after this many RTTs (None = wait forever, the default).
    serve_deadline_rtts: float | None = field(
        default=None, metadata=bound(gt=0, optional=True)
    )
    #: Resumptions in place allowed per message (0 = disabled).  On
    #: watchdog or budget exhaustion the write keeps its slot and asks the
    #: receiver for repair requests, with a fresh budget and watchdog
    #: (docs/robustness.md).
    max_resumptions: int = field(default=0, metadata=bound(ge=0))
    #: How long (in RTTs) the receiver keeps re-sending Done after
    #: completion, to survive final-datagram drops.
    grace_rtts: ClassVar[float] = 10.0


class _SamplingSendState(WriteState):
    """Per-message sender bookkeeping (no per-chunk ACK state by design)."""

    def __init__(self, ticket: WriteTicket, handles, nchunks: int, payload):
        super().__init__(ticket, handles, nchunks, payload)
        #: Simulated time each chunk last hit the wire (-inf = never).
        self.last_sent = np.full(nchunks, -np.inf)
        self.attempts = np.zeros(nchunks, dtype=np.int64)
        self.inject_done = False
        #: Last control-path signal for this write (feeds the watchdog).
        self.last_activity = ticket.start_time


class SamplingSender(Sender):
    """Sender endpoint of the availability-sampling protocol."""

    scheme = "sampling"
    config_type = SamplingConfig
    state_type = _SamplingSendState

    def __init__(
        self,
        qp: SdrQp,
        ctrl: ControlPath,
        config: SamplingConfig | None = None,
        *,
        rtt: float | None = None,
    ):
        super().__init__(qp, ctrl, config, rtt=rtt)
        self._m_repair_reqs = self._scope.counter("repair_requests_received")
        self._m_repaired_chunks = self._scope.counter("repaired_chunks")
        self._m_idle_strikes = self._scope.counter("idle_strikes")

    # -- the write path ---------------------------------------------------------------

    def _start(self, state: _SamplingSendState) -> None:
        """Inject once; repairs are receiver-driven."""
        self._post(state)
        self.sim.call_in(0.0, self._inject_once, state)

    def _inject_once(self, state: _SamplingSendState) -> None:
        """Wire-paced one-shot injection, stamping per-chunk send times,
        watched by ``_watchdog`` every idle window from the write's start."""

        def on_wire(index: int) -> None:
            state.last_sent[index] = self.sim.now

        def done() -> None:
            state.inject_done = True
            state.last_activity = self.sim.now

        self._inject(state, range(state.nchunks), on_wire, done)
        self._resumed(state)

    # -- liveness ---------------------------------------------------------------------

    def _resumed(self, state: _SamplingSendState) -> None:
        """Start the write's watchdog (a revived write's starts over)."""
        state.last_activity = self.sim.now
        idle = self.config.idle_timeout_rtts * self.rtt
        self.sim.call_in(idle, self._watchdog, state, state.ticket.resumptions)

    def _watchdog(
        self, state: _SamplingSendState, attempt: int, strikes: int = 0
    ) -> None:
        """Escalate to resumption when the control path goes silent."""
        if state.hdl.ended or state.ticket.resumptions != attempt:
            return  # completed, failed, or resuming since ``attempt``
        idle = self.config.idle_timeout_rtts * self.rtt
        if not state.inject_done:
            pass  # first transmission still pacing out
        elif self.sim.now - state.last_activity < idle:
            strikes = 0
        else:
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
        self.sim.call_in(idle, self._watchdog, state, attempt, strikes)

    def _escalate(self, state: WriteState, reason: str) -> bool:
        return self._resume(state)

    # -- control-path handling --------------------------------------------------------

    def _on_ctrl(self, msg) -> None:
        if isinstance(msg, RepairReq):
            state = self._states.get(msg.msg_seq) or self._revive(msg.msg_seq)
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
            self._revive(msg.msg_seq)
            state = self._states.pop(msg.msg_seq, None)
            if state is not None:
                self._complete_write(
                    state, retransmits=state.ticket.retransmitted_chunks
                )


class SamplingReceiver(Receiver):
    """Receiver endpoint of the availability-sampling protocol."""

    scheme = "sampling"
    config_type = SamplingConfig

    def __init__(
        self,
        qp: SdrQp,
        ctrl: ControlPath,
        config: SamplingConfig | None = None,
        *,
        rtt: float | None = None,
    ):
        super().__init__(qp, ctrl, config, rtt=rtt)
        #: Deterministic probe substreams, one per served slot.
        self._rngs = RngStreams(PROBE_SEED)
        self._m_sample_rounds = self._scope.counter("sample_rounds")
        self._m_probes_drawn = self._scope.counter("probes_drawn")
        self._m_repair_reqs = self._scope.counter("repair_requests_sent")
        self._m_full_scans = self._scope.counter("full_scans")
        self._m_dones_sent = self._scope.counter("dones_sent")

    @property
    def repair_requests_sent(self) -> int:
        return self._m_repair_reqs.value

    # -- answering a resumption ------------------------------------------------------

    def _layout(self, rh: RecvHandle) -> SegmentLayout:
        return SegmentLayout(rh.length, self.qp.config.chunk_bytes, SEGMENT_CHUNKS, 0)

    def _answer_serving(self, ticket: ReceiveTicket, rh: RecvHandle) -> None:
        """A repair request for every incomplete segment, whether or not
        any chunk arrived yet (a sampling round has no signal then)."""
        layout, present = self._layout(rh), rh.bitmap().as_array()
        for seg in range(layout.nsegments):
            start, seg_len = layout.chunk_range(seg)
            if not present[start : start + seg_len].all():
                self._send_repair(rh, layout, seg, present)

    def _answer_finished(self, seq: int) -> None:
        self._send_done(seq)

    # -- sampling serve loop ------------------------------------------------------------

    def _serve(self, ticket: ReceiveTicket, rh: RecvHandle) -> None:
        cfg = self.config
        layout = self._layout(rh)
        nseg = layout.nsegments
        seg_done = np.zeros(nseg, dtype=bool)
        rng = self._rngs.get(f"probe.{self.qp.ctx.device.name}.{rh.seq}")
        rounds = 0
        last_count = -1

        def sample() -> None:
            """One sampling round over the bitmap as it stands."""
            nonlocal rounds, last_count
            if rh.all_chunks_received():
                return
            present = rh.bitmap().as_array()
            count = int(present.sum())
            if count == 0:
                return  # nothing on the wire yet: sampling has no signal
            rounds += 1
            # A stalled bitmap means losses, not in-flight data: scan
            # exactly.  Every Nth round scans too (deterministic valve).
            full = count == last_count or rounds % FULL_SCAN_EVERY == 0
            last_count = count
            frontier = int(np.flatnonzero(present)[-1])
            flagged: list[int] = []
            probes = 0
            for seg in range(nseg):
                if seg_done[seg]:
                    continue
                start, seg_len = layout.chunk_range(seg)
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
                    rng, seg_len, min(PROBES_PER_SEGMENT, seg_len)
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
                self._send_repair(rh, layout, seg, present)

        def finish() -> None:
            # Re-send Done through the grace window in case the final
            # datagram drops.
            self._send_done(rh.seq)
            self._finish(
                ticket, [rh], lambda: self._send_done(rh.seq), 2 * self.rtt
            )

        interval = cfg.sample_interval_rtts * self.rtt
        self._watch(ticket, rh, interval, sample, finish)

    def _send_repair(
        self, rh: RecvHandle, layout: SegmentLayout, seg: int, present: np.ndarray
    ) -> None:
        start, seg_len = layout.chunk_range(seg)
        missing = ~present[start : start + seg_len]
        window = np.packbits(missing, bitorder="little").tobytes()
        self.ctrl.send(RepairReq(rh.seq, seg, start, window))
        self._m_repair_reqs.inc()
        if self._trace.enabled:
            self._trace.instant(
                "repair_req", cat="sampling", track=self._track,
                msg=rh.seq, segment=seg, missing=int(missing.sum()),
            )

    def _send_done(self, seq: int) -> None:
        self.ctrl.send(Done(msg_seq=seq))
        self._m_dones_sent.inc()


register_scheme("sampling", SamplingSender, SamplingReceiver)
