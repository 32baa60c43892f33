"""Sim-time token-bucket pacer: the actuation half of ``repro.cc``.

A :class:`Pacer` sits between one sender's :class:`~repro.sdr.qp.SdrQp`
and the wire.  ``SdrQp._inject_range`` asks ``reserve(bytes, flow=qpn)``
before every packet post and sleeps the returned wait, so first
transmissions *and* retransmissions (SR RTO/NACK, EC fallback) space out
at the controller's rate through the same bucket.

The pacer also owns the ``cc.<name>`` metrics scope and is the signal
ingress: the reliability layer feeds RTT samples, ECN echoes, ACK
progress and losses through it into the attached
:class:`~repro.cc.controller.RateController`, and every signal both
updates the controller and increments the corresponding counter, with a
``cc_rate`` trace counter emitted when the published rate moves by more
than 1%.

Bucket sharing
==============

The token buckets themselves live in a :class:`TokenBucketGroup`: one
bucket per plane, refilled lazily from one :class:`RateController`.  A
pacer built without an explicit ``buckets=`` argument owns a private
group -- the historical one-QP-per-link behavior, byte-identical to
before the split.  When several QPs multiplex one physical link (the
``repro.fabric`` service layer, or any caller that used to build one
pacer per QP), they must draw from a *single* per-link group: either
attach the same :class:`Pacer` to every QP, or build one pacer per QP
with ``buckets=shared_group`` so each keeps its own metric scope while
the bucket state -- and therefore the link's rate budget -- is shared.
A pacer sharing a group must share its controller too (one cc state per
link); mixing controllers would let each QP pace as if it owned the
link, which is exactly the bug sharing exists to fix.

With ``planes > 1`` the budget splits into per-plane buckets keyed by
``flow % planes`` -- matching :class:`~repro.net.multipath.BondedChannel`
flow-hash spraying -- unless :meth:`bind_flow` pinned the flow to an
explicit plane, and :meth:`plane_backlog` exposes each bucket's deficit
so :class:`~repro.recovery.PlaneRecovery` can fold self-imposed pacing
delay out of its plane-health latency signal.
"""

from __future__ import annotations

import numpy as np

from repro.cc.controller import RateController
from repro.common.errors import ConfigError
from repro.common.units import KiB
from repro.sim.engine import Simulator


class TokenBucketGroup:
    """Per-link token buckets: one bucket per plane, one shared rate budget.

    The group is the sharing unit: every :class:`Pacer` (or any other
    admission layer, e.g. the per-tenant quotas in ``repro.fabric``)
    drawing from the same group charges the same buckets, so N flows on
    one link split the controller's rate instead of each assuming the
    full line.  Buckets may run negative: consecutive same-instant
    reserves each see a deeper deficit, so the returned waits space the
    posts exactly one serialization time apart at the controller's rate.
    """

    __slots__ = ("sim", "controller", "planes", "burst_bytes", "_tokens", "_last")

    def __init__(
        self,
        sim: Simulator,
        controller: RateController,
        *,
        planes: int = 1,
        burst_bytes: int = 16 * KiB,
    ):
        if planes < 1:
            raise ConfigError(f"need >= 1 plane, got {planes}")
        if burst_bytes <= 0:
            raise ConfigError(f"burst must be > 0, got {burst_bytes}")
        self.sim = sim
        self.controller = controller
        self.planes = planes
        self.burst_bytes = burst_bytes
        # Per-plane buckets start full; refill is lazy at reserve time.
        self._tokens = [float(burst_bytes)] * planes
        self._last = [0.0] * planes

    @property
    def rate_bps(self) -> float | None:
        return self.controller.rate_bps

    def _plane_rate(self, rate_bps: float) -> float:
        """Bytes/s budget of one plane's bucket."""
        return rate_bps / 8.0 / self.planes

    def reserve(self, nbytes: int, plane: int = 0) -> float:
        """Charge ``nbytes`` to ``plane``'s bucket; seconds to wait.

        A ``None`` controller rate bypasses the buckets entirely (the
        null-controller fast path -- no state touched, no wait).
        """
        rate_bps = self.controller.rate_bps
        if rate_bps is None:
            return 0.0
        rate = self._plane_rate(rate_bps)
        now = self.sim.now
        tokens = min(
            float(self.burst_bytes),
            self._tokens[plane] + (now - self._last[plane]) * rate,
        )
        tokens -= nbytes
        self._tokens[plane] = tokens
        self._last[plane] = now
        if tokens >= 0.0:
            return 0.0
        return -tokens / rate

    def reserve_batch(
        self, cum_bytes: np.ndarray, plane: int = 0
    ) -> np.ndarray | None:
        """Charge a run of same-instant reserves in one call.

        ``cum_bytes`` is the inclusive cumulative byte count of the run
        (``np.cumsum(sizes)``).  Because every reserve in the run shares
        one ``sim.now``, the bucket refills once and each reserve's wait
        is a pure function of the running charge -- so the whole run
        collapses to one vectorized expression, returning exactly the
        waits ``len(cum_bytes)`` sequential :meth:`reserve` calls would.
        Returns ``None`` for a ``None`` controller rate (unpaced: all
        waits zero, no state touched).
        """
        rate_bps = self.controller.rate_bps
        if rate_bps is None:
            return None
        rate = self._plane_rate(rate_bps)
        now = self.sim.now
        tokens = min(
            float(self.burst_bytes),
            self._tokens[plane] + (now - self._last[plane]) * rate,
        )
        waits = (cum_bytes - tokens) / rate
        np.maximum(waits, 0.0, out=waits)
        self._tokens[plane] = tokens - float(cum_bytes[-1])
        self._last[plane] = now
        return waits

    def backlog_seconds(self, plane: int) -> float:
        """Seconds of pacing deficit currently queued on ``plane``'s bucket."""
        rate_bps = self.controller.rate_bps
        if rate_bps is None:
            return 0.0
        rate = self._plane_rate(rate_bps)
        tokens = min(
            float(self.burst_bytes),
            self._tokens[plane] + (self.sim.now - self._last[plane]) * rate,
        )
        return max(0.0, -tokens) / rate


class Pacer:
    """Token bucket(s) spacing packet posts at the controller's rate."""

    def __init__(
        self,
        sim: Simulator,
        controller: RateController,
        *,
        name: str = "cc",
        planes: int = 1,
        burst_bytes: int = 16 * KiB,
        buckets: TokenBucketGroup | None = None,
    ):
        if buckets is None:
            buckets = TokenBucketGroup(
                sim, controller, planes=planes, burst_bytes=burst_bytes
            )
        elif buckets.controller is not controller:
            raise ConfigError(
                "a pacer sharing a TokenBucketGroup must share its "
                "controller: one cc state per link"
            )
        self.sim = sim
        self.controller = controller
        self.name = name
        self.buckets = buckets
        self.planes = buckets.planes
        self.burst_bytes = buckets.burst_bytes
        #: Explicit flow -> plane pins (see :meth:`bind_flow`); flows not
        #: listed fall back to ``flow % planes``.
        self._flow_planes: dict[int, int] = {}
        scope = sim.telemetry.metrics.scope(f"cc.{name}")
        self._m_paced = scope.counter("paced_packets")
        self._m_stalls = scope.counter("pacing_stalls")
        self._m_stall_seconds = scope.counter("stall_seconds")
        self._m_ecn_marked = scope.counter("ecn_marked")
        self._m_ecn_seen = scope.counter("ecn_seen")
        self._m_rtt_samples = scope.counter("rtt_samples")
        self._m_acks = scope.counter("acks_clean")
        self._m_losses = scope.counter("loss_signals")
        self._g_rate = scope.gauge("rate_bps")
        if controller.rate_bps is not None:
            self._g_rate.set(controller.rate_bps)
        self._trace = sim.telemetry.trace
        self._track = f"cc.{name}"
        self._traced_rate = controller.rate_bps

    # -- actuation ---------------------------------------------------------------

    def bind_flow(self, flow: int, plane: int) -> None:
        """Pin ``flow``'s reserves to an explicit plane bucket.

        Without a binding, ``reserve`` maps ``flow % planes`` -- correct
        for flow-hash spraying, where the plane *is* the QPN residue, but
        wrong for any other flow-to-plane assignment.  Multiplexing
        layers that place flows on planes explicitly must register the
        placement here so flows sharing a plane share its bucket.
        """
        if not 0 <= plane < self.planes:
            raise ConfigError(
                f"plane must be in [0, {self.planes}), got {plane}"
            )
        self._flow_planes[flow] = plane

    def plane_of(self, flow: int) -> int:
        """The bucket ``flow`` draws from (bound plane or hash fallback)."""
        return self._flow_planes.get(flow, flow % self.planes)

    def reserve(self, nbytes: int, *, flow: int = 0) -> float:
        """Charge ``nbytes`` to ``flow``'s bucket; seconds to wait before posting.

        Buckets may run negative: consecutive same-instant reserves each
        see a deeper deficit, so the returned waits space the posts
        exactly one serialization time apart at the controller's rate.
        A ``None`` controller rate bypasses the buckets entirely (the
        null-controller fast path -- no state touched, no wait).
        """
        if self.controller.rate_bps is None:
            return 0.0
        wait = self.buckets.reserve(nbytes, self.plane_of(flow))
        self._m_paced.value += 1
        return wait

    def reserve_batch(
        self, cum_bytes: np.ndarray, *, flow: int = 0
    ) -> np.ndarray | None:
        """Batch :meth:`reserve`: one charge for a same-instant run.

        See :meth:`TokenBucketGroup.reserve_batch`; waits are identical
        to sequential per-packet reserves.  ``None`` means unpaced.
        """
        if self.controller.rate_bps is None:
            return None
        waits = self.buckets.reserve_batch(cum_bytes, self.plane_of(flow))
        self._m_paced.value += len(cum_bytes)
        return waits

    def note_stall(self, seconds: float) -> None:
        """Record one pacing stall (called by the injector before sleeping)."""
        self._m_stalls.inc()
        self._m_stall_seconds.inc(seconds)

    def rebind(self, *, line_rate_bps: float, base_rtt: float) -> None:
        """Re-anchor the controller to a new path after a reroute.

        The current rate survives (clamped to the new line rate) -- a flow
        migrating to a slower detour should not restart from line rate, and
        one migrating back should not forget its congestion state.
        """
        self.controller.rebind(
            line_rate_bps=line_rate_bps, base_rtt=base_rtt, now=self.sim.now
        )
        self._publish_rate()

    def plane_backlog(self, plane: int) -> float:
        """Seconds of pacing deficit currently queued on ``plane``'s bucket.

        Delay that ``reserve`` already promised but the wire has not yet
        seen; :class:`~repro.recovery.PlaneRecovery` subtracts it from the
        observed queue delay so pacing is not mistaken for plane sickness.
        """
        return self.buckets.backlog_seconds(plane)

    # -- signal ingress ----------------------------------------------------------

    def on_rtt_sample(self, sample: float) -> None:
        self._m_rtt_samples.value += 1
        self.controller.on_rtt_sample(sample, now=self.sim.now)
        self._publish_rate()

    def on_ecn_echo(self, marked: int, seen: int) -> None:
        self._m_ecn_marked.value += marked
        self._m_ecn_seen.value += seen if seen > marked else marked
        self.controller.on_ecn_echo(marked, seen, now=self.sim.now)
        self._publish_rate()

    def on_ack_progress(self) -> None:
        self._m_acks.value += 1
        self.controller.on_ack_progress(now=self.sim.now)
        self._publish_rate()

    def on_loss(self) -> None:
        self._m_losses.inc()
        self.controller.on_loss(now=self.sim.now)
        self._publish_rate()

    def _publish_rate(self) -> None:
        rate = self.controller.rate_bps
        if rate is None:
            return
        self._g_rate.value = rate
        if self._trace.enabled and (
            self._traced_rate is None
            or abs(rate - self._traced_rate) > 0.01 * self._traced_rate
        ):
            self._trace.counter(
                "cc_rate", cat="cc", track=self._track, rate_bps=rate
            )
            self._traced_rate = rate
