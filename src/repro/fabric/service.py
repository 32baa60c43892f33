"""RDMA-as-a-service: tenant admission, QP multiplexing, reliable flows.

RDMAvisor's observation (PAPERS.md) is that per-tenant QPs do not scale:
thousands of tenants times thousands of peers would mean millions of
connections, each with its own congestion state.  A fabric provider
therefore multiplexes tenant *flows* onto a bounded pool of fabric QPs
per host pair and enforces isolation at admission time.  This module is
that provider:

* :class:`FabricService` owns the tenant directory, the per-pair
  :class:`FabricQp` pools and the reliability machinery (segment RTO,
  bounded retransmission, duplicate suppression).
* Admission is three stacked token buckets, all sharing the
  :class:`~repro.cc.pacer.TokenBucketGroup` math:

  1. **tenant quota** -- the provider-assigned rate cap.  A misbehaving
     tenant can ignore congestion control, but it cannot bypass its
     bucket (that is what makes this a *service* rather than a shared
     cable).  Gated by ``enforce_quotas`` so benchmarks can measure what
     the bucket buys.
  2. **per-pair congestion control** -- one
     :class:`~repro.cc.controller.RateController` +
     :class:`~repro.cc.pacer.Pacer` per (src, dst) host pair, shared by
     every compliant flow multiplexed on the pair's QPs, fed by the ACK
     path's RTT samples and ECN echoes.
  3. **uplink line rate** -- one shared per-host-egress
     :class:`TokenBucketGroup` that all pairs and tenants draw from, so
     the host cannot offer more than its NIC serializes (the per-link
     shared bucket that multiplexed QPs must not each assume they own).

A flow's life is one callback chain whichever mode simulates it:
``_start_flow`` (route resolution, polling while there is none, then
the one ``msg_post``) -> ``_admit`` (least-loaded QP or the pair's FIFO;
registers the one ``_finish`` on ``ticket.done``) -> launch -> ``_on_acks``
-> ``_finish``, with ``_fail`` the only failure exit.  The modes differ
in the launch step alone: packet mode reserves the buckets sequentially
and relays one packet per segment (``_send_from``), fluid mode reserves
the whole flow upfront and books tranches of journeys (``_book``).

Loss is handled at segment granularity: each segment arms an RTO
(exponential backoff, bounded attempts); ACKs return after the reverse
path's propagation delay and carry the accumulated ECN CE mark.  All
state advances on simulator events only -- same seed, same run.

Topology failures degrade gracefully rather than killing flows.  When an
:class:`~repro.fabric.health.EdgeHealthMonitor` trips a breaker the
network invalidates its routes and notifies this service, which
re-resolves every pair's path, rebinds the pair's pacer to the detour's
bottleneck/RTT, and lets in-flight flows migrate mid-transfer (their
next segments and retransmits simply launch on the new path).  Segments
stranded on the dead path get a bounded *resumption*: their RTO backoff
resets once per reroute (up to ``max_resumptions``) so a healthy detour
is not punished for the dead primary's timeouts.  Only when **no** route
exists at all does a flow start the partition clock; past
``partition_deadline`` it fails cleanly with a
:class:`~repro.common.errors.DeliveryError` carrying the delivered-chunk
bitmap, never a wedge.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import compress
from typing import ClassVar

import numpy as np

from repro.cc.controller import CC_ALGORITHMS, StaticRateController, make_controller
from repro.cc.pacer import Pacer, TokenBucketGroup
from repro.common.config import Bounded, bound
from repro.common.errors import ConfigError, DeliveryError
from repro.common.units import KiB
from repro.fabric.topology import FabricNetwork
from repro.net.packet import Opcode, Packet
from repro.sim.engine import Event, Simulator


@dataclass(frozen=True)
class TenantSpec(Bounded):
    """One tenant's service contract."""

    name: str = field(metadata=bound(gt=""))
    #: Provider-assigned rate cap in bits/second; ``None`` = uncapped.
    quota_bps: float | None = field(default=None, metadata=bound(gt=0, optional=True))
    #: Burst depth of the tenant's quota bucket.
    burst_bytes: int = field(default=64 * KiB, metadata=bound(gt=0))
    #: Compliant tenants pace through the pair's congestion controller;
    #: a non-compliant ("misbehaving") tenant ignores it and injects at
    #: whatever rate its quota bucket (if enforced) lets through.
    compliant: bool = True


#: Burst depth of the shared per-uplink line-rate bucket.
UPLINK_BURST_BYTES = 128 * KiB


@dataclass(frozen=True)
class FabricServiceConfig(Bounded):
    """Service-level knobs (the provider's side of the contract)."""

    cc: str = field(default="swift", metadata=bound(one_of=CC_ALGORITHMS))
    #: Fabric QPs per (src, dst) host pair.
    qp_pool_per_pair: int = field(default=2, metadata=bound(ge=1))
    #: Concurrent flows one fabric QP multiplexes before admission queues.
    max_flows_per_qp: int = field(default=64, metadata=bound(ge=1))
    #: Whether tenant quota buckets are enforced at admission.
    enforce_quotas: bool = True
    #: Attempts per segment before the whole flow fails.
    max_attempts: int = field(default=8, metadata=bound(ge=1))
    #: Seconds a flow tolerates *no route at all* (every candidate path
    #: crosses an open breaker) before failing with
    #: :class:`~repro.common.errors.DeliveryError`.  The clock starts at
    #: the first no-route send and resets when any segment launches.
    partition_deadline: float = field(default=0.5, metadata=bound(gt=0))
    #: Flow segmentation: one wire packet per segment.
    segment_bytes: ClassVar[int] = 32 * KiB
    #: Segment RTO as a multiple of the pair's base RTT (plus one segment
    #: serialization per hop); doubled per attempt.
    rto_rtts: ClassVar[float] = 8.0
    #: Times a flow's per-segment attempt counter may reset after a
    #: reroute (the segment timed out on a path that no longer exists;
    #: the detour deserves a fresh retry budget).  Sized so a flow
    #: survives several half-open probe cycles of a permanently dead
    #: primary path before its RTO backoff escalates to the cap.
    max_resumptions: ClassVar[int] = 4


@dataclass(slots=True)
class FlowTicket:
    """One tenant message moving through the fabric (kept for the whole run)."""

    seq: int
    tenant: str
    src: str
    dst: str
    nbytes: int
    submitted: float
    started: float | None = None
    completed: float | None = None
    failed: bool = False
    retransmits: int = 0
    done: Event | None = None
    #: Set on terminal failure caused by a fabric partition: the
    #: :class:`~repro.common.errors.DeliveryError` carrying the
    #: delivered-chunk bitmap.  Plain RTO exhaustion leaves it ``None``.
    error: Exception | None = None

    @property
    def span(self) -> float | None:
        """Submit-to-last-ACK completion time (the tenant-visible metric)."""
        if self.completed is None:
            return None
        return self.completed - self.submitted


class _TenantMetrics:
    """Per-tenant instruments under ``<service>.tenant.<name>.*``.

    These feed the SLO plane: the :class:`~repro.telemetry.timeseries.
    TimeseriesSampler` watches the ``fabric.tenant`` prefix and
    :class:`~repro.telemetry.slo.SloTracker` derives windowed SLIs
    (goodput fraction, delivery ratio, windowed p99, retransmit overhead)
    from exactly these names.
    """

    __slots__ = (
        "flows_submitted", "flows_completed", "flows_failed",
        "bytes_acked", "segments_acked", "retransmits",
        "completion_seconds",
    )

    def __init__(self, scope):
        self.flows_submitted = scope.counter("flows_submitted")
        self.flows_completed = scope.counter("flows_completed")
        self.flows_failed = scope.counter("flows_failed")
        self.bytes_acked = scope.counter("bytes_acked")
        self.segments_acked = scope.counter("segments_acked")
        self.retransmits = scope.counter("retransmits")
        self.completion_seconds = scope.histogram("completion_seconds")


@dataclass
class TenantState:
    """Runtime state + rollup stats of one registered tenant."""

    spec: TenantSpec
    bucket: TokenBucketGroup | None
    #: Per-tenant registry instruments (the SLO plane's raw signal).
    metrics: _TenantMetrics | None = None
    flows_submitted: int = 0
    flows_completed: int = 0
    flows_failed: int = 0
    bytes_submitted: int = 0
    bytes_acked: int = 0
    retransmits: int = 0
    #: Simulated time of this tenant's most recent ACKed byte.  Goodput is
    #: measured over [0, max(window, last_ack)]: a tenant whose traffic is
    #: delayed past the arrival window by contention sees that delay as
    #: lost goodput, even though the bytes eventually land.
    last_ack: float = 0.0


class FabricQp:
    """One pooled fabric QP: a bounded flow-multiplexing slot set."""

    __slots__ = ("index", "active")

    def __init__(self, index: int):
        self.index = index
        self.active = 0


class _PairState:
    """Per (src, dst) host pair: QP pool, cc state, admission queue."""

    __slots__ = (
        "key", "qps", "waiting", "pacer", "base_rtt", "rto_base",
        "path", "flows", "reroutes",
    )

    def __init__(self, key, qps, pacer, base_rtt, rto_base, path):
        self.key = key
        self.qps = qps
        #: FIFO of ``(ticket, queued_at)`` waiting for a QP slot.
        self.waiting: deque[tuple[FlowTicket, float]] = deque()
        self.pacer = pacer
        self.base_rtt = base_rtt
        self.rto_base = rto_base
        #: The pair's current resolved route; compared against fresh
        #: recomputations on every route invalidation.
        self.path: tuple[str, ...] = path
        #: Flows currently admitted on this pair (for migration instants).
        self.flows: list[_FlowState] = []
        #: Route changes this pair has absorbed (0 = never rerouted).
        self.reroutes = 0


class _FlowState:
    """Reliability bookkeeping of one in-flight flow."""

    __slots__ = (
        "ticket", "pair", "qp", "segments", "seg_bytes", "remaining",
        "acked", "attempt", "uid", "sent_path", "route_lost_at",
        "resumptions", "max_acked", "send_times",
    )

    def __init__(self, ticket, pair, qp, segments, seg_bytes):
        self.ticket = ticket
        self.pair = pair
        self.qp = qp
        self.segments = segments
        self.seg_bytes = seg_bytes
        self.remaining = segments
        self.acked = [False] * segments
        self.attempt = [0] * segments
        #: uid of the relayed packet carrying each segment's latest attempt;
        #: ``None`` until one is launched, and for a booked segment.
        self.uid: list[int | None] = [None] * segments
        #: Path each segment's latest attempt launched on (RTO blame feed
        #: and the stale-path test that grants resumptions).
        self.sent_path: list[tuple[str, ...] | None] = [None] * segments
        #: When this flow first found no route (partition clock), or None.
        self.route_lost_at: float | None = None
        #: Attempt-counter resets granted after reroutes (bounded).
        self.resumptions = 0
        #: Highest segment index ACKed so far (reorder detection).
        self.max_acked = -1
        #: Fluid fast path only: per-segment admission-charged send times,
        #: computed once at flow admission (None otherwise).
        self.send_times: list[float] | None = None

    def seg_size(self, idx: int) -> int:
        if idx < self.segments - 1:
            return self.seg_bytes
        return self.ticket.nbytes - (self.segments - 1) * self.seg_bytes


class FabricService:
    """The multi-tenant fabric provider (see module docstring)."""

    def __init__(
        self,
        network: FabricNetwork,
        *,
        config: FabricServiceConfig | None = None,
    ):
        self.net = network
        self.sim: Simulator = network.sim
        self.config = config if config is not None else FabricServiceConfig()
        self.name = name = "fabric"
        self.tenants: dict[str, TenantState] = {}
        self.flows: list[FlowTicket] = []
        self._pairs: dict[tuple[str, str], _PairState] = {}
        self._uplinks: dict[str, TokenBucketGroup] = {}
        self._next_seq = 0
        scope = self.sim.telemetry.metrics.scope(name)
        self._m_flows_submitted = scope.counter("flows_submitted")
        self._m_flows_completed = scope.counter("flows_completed")
        self._m_flows_failed = scope.counter("flows_failed")
        self._m_bytes_submitted = scope.counter("bytes_submitted")
        self._m_bytes_acked = scope.counter("bytes_acked")
        self._m_segments_sent = scope.counter("segments_sent")
        self._m_segments_acked = scope.counter("segments_acked")
        self._m_segments_retx = scope.counter("segments_retransmitted")
        self._m_dup_acks = scope.counter("duplicate_acks")
        self._m_ecn_echoes = scope.counter("ecn_echoes")
        self._m_qp_waits = scope.counter("qp_pool_waits")
        self._m_qp_wait_seconds = scope.counter("qp_pool_wait_seconds")
        self._m_admission_stalls = scope.counter("admission_stalls")
        self._m_admission_stall_seconds = scope.counter("admission_stall_seconds")
        self._g_qps = scope.gauge("qps_in_use")
        rscope = self.sim.telemetry.metrics.scope(f"{name}.reroute")
        self._m_path_changes = rscope.counter("path_changes")
        self._m_flows_migrated = rscope.counter("flows_migrated")
        self._m_no_route_waits = rscope.counter("no_route_waits")
        self._m_no_route_wait_seconds = rscope.counter("no_route_wait_seconds")
        self._m_route_lost = rscope.counter("route_lost_flows")
        self._m_route_restored = rscope.counter("route_restored_flows")
        self._m_resumptions = rscope.counter("resumptions")
        self._m_partition_failures = rscope.counter("partition_failures")
        self._m_rr_dups = rscope.counter("dup_deliveries")
        self._m_rr_reorders = rscope.counter("reorders")
        self._trace = self.sim.telemetry.trace
        # Bound once: a preloaded arrival or an idle RTO timer would hold a
        # bound method of its own on the heap for a long time.
        self._start_flow_cb = self._start_flow
        self._on_rto_cb = self._on_rto
        network.add_route_listener(self._on_routes_changed)

    # -- registration ----------------------------------------------------------

    def add_tenant(self, spec: TenantSpec) -> TenantState:
        if spec.name in self.tenants:
            raise ConfigError(f"tenant {spec.name!r} already registered")
        bucket = None
        if spec.quota_bps is not None:
            bucket = TokenBucketGroup(
                self.sim,
                StaticRateController(spec.quota_bps),
                burst_bytes=spec.burst_bytes,
            )
        state = TenantState(
            spec=spec,
            bucket=bucket,
            metrics=_TenantMetrics(
                self.sim.telemetry.metrics.scope(
                    f"{self.name}.tenant.{spec.name}"
                )
            ),
        )
        self.tenants[spec.name] = state
        return state

    def _uplink(self, host: str) -> TokenBucketGroup:
        group = self._uplinks.get(host)
        if group is None:
            group = TokenBucketGroup(
                self.sim,
                StaticRateController(self.net.uplink_bps(host)),
                burst_bytes=UPLINK_BURST_BYTES,
            )
            self._uplinks[host] = group
        return group

    def _path_timing(
        self, src: str, dst: str, path: tuple[str, ...]
    ) -> tuple[float, float, float]:
        """``(base_rtt, bottleneck_bps, rto_base)`` of a pair routed on ``path``."""
        base_rtt = self.net.path_rtt(src, dst)
        bottleneck = self.net.bottleneck_bps(src, dst)
        seg_time = self.config.segment_bytes * 8.0 / bottleneck
        rto_base = self.config.rto_rtts * (base_rtt + (len(path) - 1) * seg_time)
        return base_rtt, bottleneck, rto_base

    def _pair(self, src: str, dst: str) -> _PairState:
        key = (src, dst)
        pair = self._pairs.get(key)
        if pair is None:
            path = self.net.route(src, dst)
            base_rtt, bottleneck, rto_base = self._path_timing(src, dst, path)
            controller = make_controller(
                self.config.cc, line_rate_bps=bottleneck, base_rtt=base_rtt
            )
            pacer = Pacer(
                self.sim,
                controller,
                name=f"{self.name}.{src}->{dst}",
                burst_bytes=max(self.config.segment_bytes, 16 * KiB),
            )
            qps = [FabricQp(i) for i in range(self.config.qp_pool_per_pair)]
            pair = _PairState(key, qps, pacer, base_rtt, rto_base, path)
            self._pairs[key] = pair
        return pair

    # -- submission ------------------------------------------------------------

    def submit(
        self, tenant: str, src: str, dst: str, nbytes: int, *, at: float | None = None
    ) -> FlowTicket:
        """Schedule one tenant message; returns its ticket immediately."""
        state = self.tenants.get(tenant)
        if state is None:
            raise ConfigError(f"unknown tenant {tenant!r}")
        if nbytes <= 0:
            raise ConfigError(f"flow bytes must be > 0, got {nbytes}")
        start = self.sim.now if at is None else at
        if start < self.sim.now:
            raise ConfigError(f"cannot submit in the past: {start}")
        ticket = FlowTicket(
            seq=self._next_seq,
            tenant=tenant,
            src=src,
            dst=dst,
            nbytes=nbytes,
            submitted=start,
            done=self.sim.event(),
        )
        self._next_seq += 1
        self.flows.append(ticket)
        state.flows_submitted += 1
        state.bytes_submitted += nbytes
        self._m_flows_submitted.value += 1
        self._m_bytes_submitted.value += nbytes
        state.metrics.flows_submitted.value += 1
        self.sim.call_at(start, self._start_flow_cb, ticket)
        return ticket

    # -- flow lifecycle: resolve -> admit -> launch -> ACK -> finish -----------

    def _start_flow(self, ticket: FlowTicket, deadline: float | None = None) -> None:
        """Resolve the pair's route, post the message, hand it to admission.

        Pair creation resolves a route; under a full partition there is
        none yet.  Poll (deterministically, re-entering here) until the
        partition deadline, then fail cleanly instead of wedging.
        """
        try:
            pair = self._pair(ticket.src, ticket.dst)
        except ConfigError:
            if deadline is None:
                deadline = self.sim.now + self.config.partition_deadline
            if self.sim.now >= deadline:
                self._fail(ticket, DeliveryError(
                    f"no route {ticket.src!r} -> {ticket.dst!r} at "
                    f"admission for {self.config.partition_deadline}s",
                    delivered_chunks=0, total_chunks=0,
                ))
                return
            self._m_no_route_waits.inc()
            wait = self.config.partition_deadline / 8.0
            self._m_no_route_wait_seconds.inc(wait)
            self.sim.call_in(wait, self._start_flow_cb, ticket, deadline)
            return
        if self._trace.enabled:
            self._trace.instant(
                "msg_post", cat="fabric", track=f"{self.name}.{ticket.src}",
                msg=ticket.seq, bytes=ticket.nbytes, tenant=ticket.tenant,
                chunks=self._segments(ticket),
            )
        self._admit(pair, ticket)

    def _segments(self, ticket: FlowTicket) -> int:
        return max(1, math.ceil(ticket.nbytes / self.config.segment_bytes))

    def _admit(
        self, pair: _PairState, ticket: FlowTicket, queued_at: float | None = None
    ) -> None:
        """Admission onto the bounded QP pool, then the mode's launch step.

        Least-loaded QP; when every QP is at its multiplexing limit the
        flow joins the pair's FIFO and re-enters here (re-checking the
        pool) each time a finishing flow releases a slot.
        """
        if queued_at is not None:
            self._m_qp_wait_seconds.inc(self.sim.now - queued_at)
        # ``min(key=(active, index))``: ``pair.qps`` is in index order.
        qps = pair.qps
        qp = qps[0]
        for q in qps:
            if q.active < qp.active:
                qp = q
        if qp.active >= self.config.max_flows_per_qp:
            pair.waiting.append((ticket, self.sim.now))
            self._m_qp_waits.inc()
            return
        qp.active += 1
        if qp.active == 1:
            self._g_qps.add(1)
        ticket.started = self.sim.now
        state = _FlowState(
            ticket, pair, qp, self._segments(ticket), self.config.segment_bytes
        )
        pair.flows.append(state)
        ticket.done.callbacks.append(partial(self._finish, state))
        # The launch step: the one place the two modes part ways.
        if self._fluid_plan(pair) is None:
            self._send_from(state, 0)
        else:
            self._schedule_flow_fluid(state)

    def _finish(self, state: _FlowState, _done: Event) -> None:
        """Release the QP slot (completion or failure), wake the next waiter."""
        pair = state.pair
        pair.flows.remove(state)
        state.qp.active -= 1
        if state.qp.active == 0:
            self._g_qps.add(-1)
        if pair.waiting:
            self.sim.call_in(0.0, self._admit, pair, *pair.waiting.popleft())

    def _fluid_plan(self, pair: _PairState) -> tuple | None:
        """Hop plan when ``pair``'s segments are booked fluidly.

        ``None`` -- the event-driven relay -- in packet mode, on a
        monitored fabric (a breaker transition would invalidate journeys
        already booked) and when an edge of the pair's path cannot be
        booked (:meth:`FabricNetwork.fluid_plan`).
        """
        if not self.sim.config.fluid or self.net.health is not None:
            return None
        return self.net.fluid_plan(pair.path)

    # -- launch, packet mode: sequential reserves, one relayed packet each -----

    def _send_from(self, state: _FlowState, idx: int, stalled: float = 0.0) -> None:
        """Reserve for and launch segments ``idx, idx + 1, ...`` in turn.

        A stall sleeps and re-enters here with ``stalled`` set; the
        stalled segment then launches (``_send_segment`` drops it if the
        flow failed meanwhile) and the loop goes on behind it.
        """
        ticket = state.ticket
        if stalled > 0.0:
            if self._trace.enabled:
                self._trace.instant(
                    "cc_stall", cat="cc", track=f"{self.name}.{ticket.src}",
                    msg=ticket.seq, chunk=idx, stall=stalled,
                )
            self._send_segment(state, idx, 0)
            idx += 1
        tenant = self.tenants[ticket.tenant]
        while idx < state.segments and not ticket.failed:
            wait = self._admission_wait(tenant, state, state.seg_size(idx))
            if wait > 0.0:
                self._m_admission_stalls.value += 1
                self._m_admission_stall_seconds.value += wait
                self.sim.call_in(wait, self._send_from, state, idx, wait)
                return
            self._send_segment(state, idx, 0)
            idx += 1

    def _admission_wait(
        self, tenant: TenantState, state: _FlowState, nbytes: int
    ) -> float:
        """Longest of the three stacked buckets (all charged now)."""
        ticket = state.ticket
        wait = self._uplink(ticket.src).reserve(nbytes)
        if self.config.enforce_quotas and tenant.bucket is not None:
            wait = max(wait, tenant.bucket.reserve(nbytes))
        if tenant.spec.compliant:
            wait = max(
                wait, state.pair.pacer.reserve(nbytes, flow=ticket.seq)
            )
        return wait

    def _send_segment(self, state: _FlowState, idx: int, attempt: int) -> None:
        """Launch one segment (first transmission or retransmit) now."""
        ticket = state.ticket
        if ticket.failed or state.acked[idx]:
            return
        plan = self._fluid_plan(state.pair)
        if plan is not None:
            self._book(
                state, idx, [state.seg_size(idx)], [self.sim.now], attempt, plan
            )
            return
        # Positional, in field order (docs/simulation.md, "Hot-path records").
        uid = self.sim.packet_uid()
        packet = Packet(
            0, Opcode.WRITE_ONLY_IMM, 0, 0, 0, state.seg_size(idx), None,
            None, 0, ticket.seq, idx, idx, attempt, None, False, uid,
        )
        state.attempt[idx] = attempt
        state.uid[idx] = uid
        try:
            path = self.net.send(
                ticket.src,
                ticket.dst,
                packet,
                partial(self._on_delivered, state, idx, attempt, self.sim.now),
            )
        except ConfigError:
            # Every candidate path crosses an open breaker: no RTO armed
            # (nothing is in flight), the partition clock runs instead.
            self._on_no_route(state, idx, attempt)
            return
        self._launched(state, idx, 1, path)
        self.sim.call_in(
            self._rto(state.pair, attempt), self._on_rto_cb, state, idx, attempt
        )

    def _on_delivered(
        self, state: _FlowState, idx: int, attempt: int, sent_at: float, packet: Packet
    ) -> None:
        # Runs at the destination host; the ACK rides the control plane
        # back after the reverse path's propagation delay.
        ticket = state.ticket
        try:
            ack_delay = self.net.path_one_way_delay(ticket.dst, ticket.src)
        except ConfigError:
            # No reverse route (partition): the ACK cannot return; the
            # sender's RTO / partition clock takes it from here.
            return
        self.sim.call_in(
            ack_delay, self._on_ack, state, idx, attempt, sent_at, packet.ce
        )

    def _on_ack(
        self, state: _FlowState, idx: int, attempt: int, sent_at: float, ce: bool
    ) -> None:
        """A relayed segment's ACK: pacer feedback, then :meth:`_on_acks`."""
        ticket = state.ticket
        if (
            not state.acked[idx]
            and not ticket.failed
            and self.tenants[ticket.tenant].spec.compliant
        ):
            pacer = state.pair.pacer
            if attempt == state.attempt[idx]:  # Karn: first-attempt samples only
                pacer.on_rtt_sample(self.sim.now - sent_at)
            if ce:
                self._m_ecn_echoes.value += 1
                pacer.on_ecn_echo(1, 1)
            else:
                pacer.on_ack_progress()
        self._on_acks(state, (idx,))

    # -- launch, fluid mode: upfront reserves, booked journeys -----------------

    def _schedule_flow_fluid(self, state: _FlowState) -> None:
        """Charge the whole flow's admission upfront; book tranche 0.

        :meth:`_send_from` sleeps between segments while the buckets
        refill; for fixed-rate token buckets, reserving every segment
        upfront yields the *same* absolute send times (debt drains
        linearly).  All three buckets refill lazily and every reserve
        here shares one ``sim.now``, so the waits collapse to vectorized
        cumulative-charge expressions.  What is lost is intra-flow
        feedback: a controller's rate change mid-flow no longer shifts
        the flow's own later segments -- its schedule is fixed at
        admission (a documented fluid approximation, ``docs/simulation.md``).
        """
        ticket = state.ticket
        tenant = self.tenants[ticket.tenant]
        now = self.sim.now
        nseg = state.segments
        if nseg == 1:
            # Mice dominate the default mix, and ndarray setup costs more
            # than a single reserve.
            waits = [self._admission_wait(tenant, state, ticket.nbytes)]
        else:
            sizes = np.full(nseg, float(state.seg_bytes))
            sizes[-1] = float(state.seg_size(nseg - 1))
            waits = self._admission_wait_batch(
                tenant, state, np.cumsum(sizes)
            ).tolist()
        # Waits are nondecreasing (cumulative charges against buckets
        # refilled once), so the stall increments telescope to the last.
        stalls = 0
        prev = 0.0
        for idx, wait in enumerate(waits):
            if wait > prev:
                stalls += 1
                if self._trace.enabled:
                    self._trace.instant(
                        "cc_stall", cat="cc",
                        track=f"{self.name}.{ticket.src}",
                        msg=ticket.seq, chunk=idx, stall=wait - prev,
                    )
                prev = wait
        if stalls:
            self._m_admission_stalls.inc(stalls)
            self._m_admission_stall_seconds.inc(waits[-1])
        state.send_times = [now + wait for wait in waits]
        self._book_flow_fluid(state, 0)

    def _admission_wait_batch(
        self, tenant: TenantState, state: _FlowState, cum: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`_admission_wait` over one flow's segments."""
        ticket = state.ticket
        waits = self._uplink(ticket.src).reserve_batch(cum)
        if self.config.enforce_quotas and tenant.bucket is not None:
            quota = tenant.bucket.reserve_batch(cum)
            if quota is not None:
                np.maximum(waits, quota, out=waits)
        if tenant.spec.compliant:
            paced = state.pair.pacer.reserve_batch(cum, flow=ticket.seq)
            if paced is not None:
                np.maximum(waits, paced, out=waits)
        return waits

    def _book_flow_fluid(self, state: _FlowState, start: int) -> None:
        """Book the next tranche of a fluid flow's precomputed schedule.

        Bookahead is bounded: only segments sending within one window of
        now are booked; the rest re-enter via a continuation event at the
        next send.  Each edge's booking ring retains a finite span of
        arrival history (:attr:`FluidLink.horizon`), so booking
        arbitrarily far ahead would shift rings forward and discard
        buckets that flows starting a microsecond later still need.  The
        window is the smallest horizon along the path, capped at one
        base RTT.
        """
        ticket = state.ticket
        if ticket.failed:
            return
        sends = state.send_times
        nseg = state.segments
        now = self.sim.now
        plan = self._fluid_plan(state.pair)
        if plan is None:  # route mutated mid-flow: finish eventfully
            for idx in range(start, nseg):
                self.sim.call_at(
                    max(sends[idx], now), self._send_segment, state, idx, 0
                )
            return
        window = min(
            state.pair.base_rtt, min(link.horizon for link, _owd in plan)
        )
        if sends[start] > now + window:
            # Bucket debt pushed the next send beyond the bookahead
            # window; booking it anyway would shift edge rings past the
            # arrivals other flows are booking now.  Re-enter at the
            # send instant, when a full window of sends is bookable.
            self.sim.call_at(sends[start], self._book_flow_fluid, state, start)
            return
        end = bisect_right(sends, now + window, start)
        if end < nseg:
            self.sim.call_at(sends[end], self._book_flow_fluid, state, end)
        sizes = [state.seg_bytes] * (end - start)
        if end == nseg:
            sizes[-1] = state.seg_size(nseg - 1)
        self._book(state, start, sizes, sends[start:end], 0, plan)

    def _book(
        self,
        state: _FlowState,
        first: int,
        sizes: list[int],
        sends: list[float],
        attempt: int,
        plan: tuple,
    ) -> None:
        """Book segments ``first, first + 1, ...`` sent at ``sends``.

        Fluid mode's one journey routine, for a first-transmission
        tranche and for a single retransmitted segment alike.  Each edge
        of ``plan`` admits the previous edge's survivors in one
        :meth:`FluidLink.book` call at their computed arrival instants,
        so no per-hop delivery event, destination callback or armed RTO
        timer reaches the heap: the call schedules one :meth:`_on_acks`
        for what arrived and one :meth:`_on_rto` per segment dropped on
        the way, whose stale-attempt guards make raced callbacks safe.  A
        delivered segment therefore never retransmits even if its
        computed ACK lands after the RTO would have fired (a documented
        fluid approximation).
        """
        ticket = state.ticket
        pair = state.pair
        n = len(sizes)
        state.attempt[first:first + n] = [attempt] * n
        # No packet is in flight for a booked segment: an RTO must not
        # abandon the uid an earlier relayed attempt left in the slot.
        state.uid[first:first + n] = [None] * n
        self._launched(state, first, n, pair.path)
        # ``alive`` holds the tranche positions still in flight; survivors
        # advance with each edge's serialization + propagation.
        alive = range(n)
        times = sends
        ce = set()  # positions CE-marked on some edge
        for link, owd in plan:
            times, ok, marked = link.book(sizes, times, ticket.seq, owd)
            if marked is not None:
                ce.update(compress(alive, marked))
            if ok is not None:
                alive = list(compress(alive, ok))
                if not alive:
                    break
                sizes = list(compress(sizes, ok))
                times = list(compress(times, ok))
        if alive:
            # Booking runs only on an unmonitored fabric, whose routes never
            # change: the reverse route the forward one implies is there.
            ack_delay = self.net.path_one_way_delay(ticket.dst, ticket.src)
            if self.tenants[ticket.tenant].spec.compliant:
                # Synchronous feedback on a *virtual* clock: the
                # booked journey already fixes each segment's RTT, CE
                # mark and ACK instant, so the controller hears them
                # at booking time, stamped with the computed ACK time
                # (controllers rate-limit cuts per interval of their
                # clock; collapsing all feedback onto one sim.now
                # would allow a single cut and the core buffer would
                # tail-drop wholesale).  Earlier than reality by up
                # to one RTT -- a documented fluid approximation
                # (docs/simulation.md).
                acks = [arrival + ack_delay for arrival in times]
                rtts = [ack - sends[i] for i, ack in zip(alive, acks)]
                marks = [False] * len(acks)
                if ce:
                    marks = [i in ce for i in alive]
                    self._m_ecn_echoes.inc(marks.count(True))
                pair.pacer.controller.on_acks(rtts, marks, acks)
            # FIFO chaining keeps arrivals nondecreasing, so the last
            # ACK is the latest: one event applies them all (pacer
            # feedback already happened above).
            self.sim.call_at(
                times[-1] + ack_delay, self._on_acks, state,
                [first + i for i in alive],
            )
        if len(alive) < n:
            rto = self._rto(pair, attempt)
            delivered = set(alive)
            for i in range(n):
                if i not in delivered:
                    self.sim.call_at(
                        sends[i] + rto, self._on_rto_cb, state, first + i, attempt
                    )

    # -- shared by both launch steps -------------------------------------------

    def _rto(self, pair: _PairState, attempt: int) -> float:
        return min(pair.rto_base * (2.0 ** attempt), 4.0)

    def _launched(
        self, state: _FlowState, first: int, n: int, path: tuple[str, ...]
    ) -> None:
        """``n`` segments from ``first`` just left on ``path``, relayed or booked."""
        ticket = state.ticket
        state.sent_path[first:first + n] = [path] * n
        if state.route_lost_at is not None:
            state.route_lost_at = None
            self._m_route_restored.inc()
            if self._trace.enabled:
                self._trace.instant(
                    "route_restored", cat="fabric",
                    track=f"{self.name}.{ticket.src}",
                    msg=ticket.seq, chunk=first,
                )
        self._m_segments_sent.value += n

    def _on_acks(self, state: _FlowState, idxs) -> None:
        """The one ACK routine: acked bits, byte/segment counters, completion.

        ``idxs`` is one relayed segment (from :meth:`_on_ack`) or one
        booking's survivors, applied at the last one's ACK arrival.  A
        duplicate is counted before the flow's fate is looked at.
        """
        ticket = state.ticket
        acked = state.acked
        reroutes = state.pair.reroutes
        failed = ticket.failed
        seg_bytes = state.seg_bytes
        last = state.segments - 1
        max_acked = state.max_acked
        nacked = 0
        bytes_acked = 0
        for idx in idxs:
            if acked[idx]:
                self._m_dup_acks.value += 1
                if reroutes:
                    # Old-path copy raced the new-path retransmit and both
                    # landed: a reroute-induced duplicate, not a protocol bug.
                    self._m_rr_dups.value += 1
                continue
            if failed:
                continue
            if idx < max_acked and reroutes:
                self._m_rr_reorders.value += 1
            if idx > max_acked:
                max_acked = idx
            acked[idx] = True
            nacked += 1
            bytes_acked += seg_bytes if idx < last else state.seg_size(idx)
        if nacked == 0:
            return
        state.max_acked = max_acked
        state.remaining -= nacked
        tenant = self.tenants[ticket.tenant]
        tenant.bytes_acked += bytes_acked
        tenant.last_ack = self.sim.now
        self._m_bytes_acked.value += bytes_acked
        self._m_segments_acked.value += nacked
        metrics = tenant.metrics
        metrics.bytes_acked.value += bytes_acked
        metrics.segments_acked.value += nacked
        if state.remaining == 0:
            ticket.completed = self.sim.now
            tenant.flows_completed += 1
            self._m_flows_completed.value += 1
            metrics.flows_completed.value += 1
            metrics.completion_seconds.observe(ticket.span)
            if self._trace.enabled:
                self._trace.instant(
                    "fabric_deliver", cat="fabric",
                    track=f"{self.name}.{ticket.src}",
                    msg=ticket.seq, tenant=ticket.tenant, bytes=ticket.nbytes,
                )
            ticket.done.succeed()

    def _on_rto(self, state: _FlowState, idx: int, attempt: int) -> None:
        ticket = state.ticket
        if state.acked[idx] or ticket.failed or state.attempt[idx] != attempt:
            return  # delivered meanwhile, or a newer attempt owns the range
        uid = state.uid[idx]
        if uid is not None:  # a relayed packet; a booked segment has none
            self.net.abandon(uid)
        sent_path = state.sent_path[idx]
        if sent_path is not None:
            # The loss was somewhere along the launch path: feed the edge
            # health monitor so repeated RTOs trip the breaker even when
            # the dead edge sees no *other* traffic.
            self.net.note_rto(sent_path)
        tenant = self.tenants[ticket.tenant]
        tenant.retransmits += 1
        ticket.retransmits += 1
        self._m_segments_retx.inc()
        tenant.metrics.retransmits.inc()
        if self._trace.enabled:
            self._trace.instant(
                "rto_fire", cat="fabric", track=f"{self.name}.{ticket.src}",
                msg=ticket.seq, chunk=idx, attempt=attempt,
            )
        if tenant.spec.compliant:
            state.pair.pacer.on_loss()
        next_attempt = attempt + 1
        if (
            sent_path is not None
            and sent_path != state.pair.path
            and state.resumptions < self.config.max_resumptions
        ):
            # The attempts so far burned on a path that no longer exists;
            # grant the detour a fresh (bounded) retry budget.
            state.resumptions += 1
            next_attempt = 0
            self._m_resumptions.inc()
            if self._trace.enabled:
                self._trace.instant(
                    "resumption", cat="fabric",
                    track=f"{self.name}.{ticket.src}",
                    msg=ticket.seq, chunk=idx,
                    resumption=state.resumptions,
                )
        elif next_attempt >= self.config.max_attempts:
            self._fail(ticket)
            return
        wait = self._admission_wait(tenant, state, state.seg_size(idx))
        if wait > 0.0:
            self.sim.call_in(wait, self._send_segment, state, idx, next_attempt)
        else:
            self._send_segment(state, idx, next_attempt)

    # -- degradation (reroute, partition) --------------------------------------

    def _on_routes_changed(self) -> None:
        """Route cache was invalidated (a breaker tripped or half-opened).

        Re-resolve every pair's path; on a change, rebind the pair's pacer
        to the new bottleneck/RTT and emit one ``reroute`` instant per
        in-flight flow (correlation key: the flow's ``msg`` seq, same key
        as its ``msg_post``/``fabric_deliver`` instants).
        """
        for pair in self._pairs.values():
            try:
                path = self.net.route(*pair.key)
            except ConfigError:
                # Fully partitioned: keep the stale path for resumption
                # comparisons; sends will hit the no-route clock.
                continue
            if path == pair.path:
                continue
            pair.path = path
            pair.reroutes += 1
            self._m_path_changes.inc()
            pair.base_rtt, bottleneck, pair.rto_base = self._path_timing(
                *pair.key, path
            )
            pair.pacer.rebind(line_rate_bps=bottleneck, base_rtt=pair.base_rtt)
            migrated = 0
            for state in pair.flows:
                if state.ticket.failed or state.remaining == 0:
                    continue
                migrated += 1
                if self._trace.enabled:
                    self._trace.instant(
                        "reroute", cat="fabric",
                        track=f"{self.name}.{state.ticket.src}",
                        msg=state.ticket.seq,
                        path="->".join(path),
                        reroutes=pair.reroutes,
                    )
            if migrated:
                self._m_flows_migrated.inc(migrated)

    def _on_no_route(self, state: _FlowState, idx: int, attempt: int) -> None:
        ticket = state.ticket
        now = self.sim.now
        if state.route_lost_at is None:
            state.route_lost_at = now
            self._m_route_lost.inc()
            if self._trace.enabled:
                self._trace.instant(
                    "route_lost", cat="fabric",
                    track=f"{self.name}.{ticket.src}",
                    msg=ticket.seq, chunk=idx,
                )
        if now - state.route_lost_at >= self.config.partition_deadline:
            self._fail(ticket, DeliveryError(
                f"no route {ticket.src!r} -> {ticket.dst!r} for "
                f"{self.config.partition_deadline}s (partition deadline)",
                delivered_chunks=state.segments - state.remaining,
                total_chunks=state.segments,
                bitmap=np.packbits(
                    np.asarray(state.acked, dtype=bool)
                ).tobytes(),
            ))
            return
        self._m_no_route_waits.inc()
        wait = state.pair.base_rtt
        self._m_no_route_wait_seconds.inc(wait)
        self.sim.call_in(wait, self._send_segment, state, idx, attempt)

    def _fail(self, ticket: FlowTicket, error: DeliveryError | None = None) -> None:
        """The one failure exit: a clean failure completion, never a wedge.
        ``error`` is a partition's; plain RTO exhaustion passes none.
        Every caller has checked ``ticket.failed`` first."""
        ticket.failed = True
        ticket.completed = None
        ticket.error = error
        tenant = self.tenants[ticket.tenant]
        tenant.flows_failed += 1
        self._m_flows_failed.inc()
        tenant.metrics.flows_failed.inc()
        if error is not None:
            self._m_partition_failures.inc()
            if self._trace.enabled:
                self._trace.instant(
                    "delivery_error", cat="fabric",
                    track=f"{self.name}.{ticket.src}",
                    msg=ticket.seq,
                    delivered=error.delivered_chunks,
                    total=error.total_chunks,
                )
        ticket.done.succeed()

    # -- inspection ------------------------------------------------------------

    @property
    def completed_flows(self) -> int:
        return sum(1 for t in self.flows if t.completed is not None)

    @property
    def delivery_errors(self) -> int:
        """Flows that ended in a partition-deadline ``DeliveryError``."""
        return sum(1 for t in self.flows if t.error is not None)

    def reroute_stats(self) -> dict[str, float]:
        """The ``fabric.reroute.*`` counters as a plain dict (CLI JSON)."""
        return {
            "path_changes": self._m_path_changes.value,
            "flows_migrated": self._m_flows_migrated.value,
            "no_route_waits": self._m_no_route_waits.value,
            "no_route_wait_seconds": self._m_no_route_wait_seconds.value,
            "route_lost_flows": self._m_route_lost.value,
            "route_restored_flows": self._m_route_restored.value,
            "resumptions": self._m_resumptions.value,
            "partition_failures": self._m_partition_failures.value,
            "dup_deliveries": self._m_rr_dups.value,
            "reorders": self._m_rr_reorders.value,
        }
