"""Health monitoring and circuit breakers: one keyed loop, two owners.

:class:`BreakerSet` holds a :class:`PlaneHealth` EWMA and a
:class:`CircuitBreaker` per key and is the only place breakers move.
Health is an EWMA of each key's delivery/loss ratio (from its channel
counters) and queue latency, sharpened by NACK/RTO penalties the layers
above feed in.  Each breaker walks the classic state machine:

    closed --(EWMA loss >= open_threshold)--> open
    open --(backoff expires)--> half_open
    half_open --(probe packets delivered)--> closed
    half_open --(probe dropped)--> open (backoff doubles, capped)

:class:`PlaneRecovery` is the set keyed by the planes of a
:class:`~repro.net.multipath.BondedChannel` (the recovery plane's first
half); :class:`repro.fabric.health.EdgeHealthMonitor` is the same set
keyed by the directed edges of a fabric.  While a plane's breaker is
open the plane is excluded from both spreading policies: flow-hashed
traffic re-hashes over the usable planes, packet spray round-robins over
them.  A half-open plane admits a bounded number of probe packets per
evaluation interval; delivered probes close the breaker, a dropped probe
re-opens it with doubled (capped) backoff.

Everything is deterministic: health evaluation happens lazily from the
owner's transmit path, consuming no RNG draws and adding no pending
simulator events, so same-seed recovery runs are byte-identical and a
drained simulation still terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.common.config import Bounded, bound
from repro.common.errors import ConfigError

#: Breaker states (also exported as gauge values: closed=0, half=1, open=2).
CLOSED = "closed"
HALF_OPEN = "half_open"
OPEN = "open"
_STATE_GAUGE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


@dataclass(frozen=True)
class BreakerConfig(Bounded):
    """Tuning for :class:`PlaneRecovery` (all times in RTT multiples)."""

    #: Packets a plane must have carried since (re-)closing before the
    #: loss EWMA is trusted enough to trip the breaker.
    min_samples: int = field(default=8, metadata=bound(ge=1))
    #: First open -> half-open backoff.
    open_rtts: float = field(default=8.0, metadata=bound(gt=0))
    #: Backoff multiplier per consecutive re-open.
    backoff_factor: float = field(default=2.0, metadata=bound(ge=1))
    #: Cap on consecutive backoff escalations.
    backoff_cap: int = field(default=6, metadata=bound(ge=0))
    #: Probe packets a half-open plane admits per evaluation interval.
    probe_packets: int = field(default=4, metadata=bound(ge=1))
    #: Delivered probes required to close a half-open breaker.
    probe_successes: int = field(default=3, metadata=bound(ge=1))
    #: Health-evaluation period: stats deltas are folded into the EWMA at
    #: most this often (evaluated lazily from the transmit path).
    poll_rtts: ClassVar[float] = 1.0
    #: EWMA smoothing factor for the loss/latency estimates.
    ewma_alpha: ClassVar[float] = 0.4
    #: EWMA loss ratio at which a closed breaker trips open.
    open_threshold: ClassVar[float] = 0.5


class PlaneHealth:
    """EWMA view of one plane's delivery/loss ratio and queue latency."""

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.loss = 0.0
        self.latency = 0.0
        #: Packets offered since the last breaker (re-)close.
        self.window_offered = 0
        self._last_offered = 0
        self._last_dropped = 0
        self._seeded = False

    def update(
        self, offered: int, dropped: int, queue_delay: float
    ) -> tuple[int, int]:
        """Fold one stats delta into the EWMAs; returns (d_offered, d_dropped)."""
        d_off = offered - self._last_offered
        d_drop = dropped - self._last_dropped
        self._last_offered = offered
        self._last_dropped = dropped
        self.latency = (1 - self.alpha) * self.latency + self.alpha * queue_delay
        if d_off > 0:
            ratio = d_drop / d_off
            if self._seeded:
                self.loss = (1 - self.alpha) * self.loss + self.alpha * ratio
            else:
                self.loss = ratio
                self._seeded = True
            self.window_offered += d_off
        return d_off, d_drop

    def penalize(self, weight: float = 1.0) -> None:
        """Fold a loss signal that bypassed the counters (NACK/RTO).

        A penalty can only *raise* the loss estimate: an RTO/NACK carries
        no evidence of successful delivery, so a small diluted penalty
        must never drag a plane that the counters show as dead back
        below the trip threshold.
        """
        sample = min(max(weight, 0.0), 1.0)
        blended = (1 - self.alpha) * self.loss + self.alpha * sample
        self.loss = max(self.loss, blended)
        # Deliberately does NOT set ``_seeded``: seeding is reserved for
        # counter-based delivery-ratio samples, so the first real ratio
        # observation lands at full strength instead of being diluted by
        # earlier small penalties.

    def reset_window(self) -> None:
        self.window_offered = 0


class CircuitBreaker:
    """State machine for one plane: closed -> open -> half-open -> closed."""

    def __init__(self, config: BreakerConfig, rtt: float):
        self.config = config
        self.rtt = rtt
        self.state = CLOSED
        self.reopen_at = 0.0
        self.consecutive_opens = 0
        #: Probe budget spent in the current half-open evaluation interval.
        self.probes_sent = 0
        #: Probes confirmed delivered across the half-open phase.
        self.probes_delivered = 0

    @property
    def backoff(self) -> float:
        """Current open -> half-open backoff in seconds (capped)."""
        escalations = min(max(self.consecutive_opens - 1, 0), self.config.backoff_cap)
        return (
            self.config.open_rtts
            * self.rtt
            * self.config.backoff_factor**escalations
        )

    def trip(self, now: float) -> None:
        self.state = OPEN
        self.consecutive_opens += 1
        self.reopen_at = now + self.backoff
        self.probes_sent = 0
        self.probes_delivered = 0

    def half_open(self) -> None:
        self.state = HALF_OPEN
        self.probes_sent = 0
        self.probes_delivered = 0

    def close(self) -> None:
        self.state = CLOSED
        self.consecutive_opens = 0
        self.probes_sent = 0
        self.probes_delivered = 0

    @property
    def admits_probe(self) -> bool:
        return (
            self.state == HALF_OPEN
            and self.probes_sent < self.config.probe_packets
        )


class BreakerSet:
    """The keyed breaker loop: one health EWMA + one breaker per key.

    Owns everything about *when* a breaker moves -- the rate-limited
    evaluation, open -> half-open expiry, the trip test, floor-only
    penalties -- over keys it never interprets.  An owner subclasses it
    and supplies only what differs between "planes of a bonded link" and
    "directed edges of a fabric":

    * :meth:`_sample` -- a key's cumulative ``(offered, dropped)``
      counters and its current queue delay;
    * :meth:`_transitioned` -- what a state change *means* (gauges,
      listeners, route invalidation), told after the trace instants;
    * :attr:`_event` / :attr:`_cat` / :meth:`_trace_args` -- its trace
      vocabulary (``breaker_open``/``recovery``/``plane=`` versus
      ``edge_open``/``fabric``/``edge=``).

    Evaluation is lazy: the owner calls :meth:`evaluate` from its
    datapath, so the set schedules no simulator events and draws no RNG.
    """

    _event = "breaker"
    _cat = "recovery"

    def __init__(
        self, sim, keys, *, rtt: float, config: BreakerConfig | None, track: str
    ):
        if rtt <= 0:
            raise ConfigError(f"rtt must be > 0, got {rtt}")
        self.sim = sim
        self.rtt = rtt
        self.config = config if config is not None else BreakerConfig()
        self.health = {key: PlaneHealth(self.config.ewma_alpha) for key in keys}
        self.breakers = {key: CircuitBreaker(self.config, rtt) for key in keys}
        self._last_eval = float("-inf")
        scope = sim.telemetry.metrics.scope(track)
        self._m_opens = scope.counter("breaker_opens")
        self._m_closes = scope.counter("breaker_closes")
        self._trace = sim.telemetry.trace
        self._track = track

    # -- what an owner supplies ------------------------------------------------

    def _sample(self, key, now: float) -> tuple[int, int, float]:
        """``(packets_offered, packets_dropped, queue_delay)`` of ``key``."""
        raise NotImplementedError

    def _transitioned(self, keys: list, state: str) -> None:
        """``keys`` just entered ``state`` (one key, or every breaker whose
        backoff expired in the same tick: all of them are half-open
        *before* the owner hears of any)."""
        raise NotImplementedError

    def _trace_args(self, key) -> dict:
        raise NotImplementedError

    def _instant(self, what: str, key, **args) -> None:
        if self._trace.enabled:
            self._trace.instant(
                f"{self._event}_{what}", cat=self._cat, track=self._track,
                **self._trace_args(key), **args,
            )

    # -- the loop --------------------------------------------------------------

    def evaluate(self, now: float) -> bool:
        """Fold fresh stats deltas into health, walk breaker transitions.

        Rate-limited to one full evaluation per poll interval (returns
        whether this call was one); open -> half-open expiry ticks on
        every call so recovery is never starved by a quiet datapath.
        """
        if now - self._last_eval < self.config.poll_rtts * self.rtt:
            self._tick_open(now)
            return False
        self._last_eval = now
        for key, br in self.breakers.items():
            d_off, d_drop = self.health[key].update(*self._sample(key, now))
            if br.state == HALF_OPEN:
                if d_drop > 0:
                    self._trip(key, now, reason="probe_failed")
                elif d_off > 0:
                    br.probes_delivered += d_off
                    if br.probes_delivered >= self.config.probe_successes:
                        self._close(key)
                if br.state == HALF_OPEN:
                    br.probes_sent = 0  # fresh probe budget per interval
        self._tick_open(now)
        self._maybe_trip(now)
        return True

    def _tick_open(self, now: float) -> None:
        expired = [
            key for key, br in self.breakers.items()
            if br.state == OPEN and now >= br.reopen_at
        ]
        for key in expired:
            self.breakers[key].half_open()
            self._instant("half_open", key)
        if expired:
            self._transitioned(expired, HALF_OPEN)

    def _maybe_trip(self, now: float) -> None:
        for key, br in self.breakers.items():
            h = self.health[key]
            if (
                br.state == CLOSED
                and h.window_offered >= self.config.min_samples
                and h.loss >= self.config.open_threshold
            ):
                self._trip(key, now, reason="loss")

    def _trip(self, key, now: float, *, reason: str) -> None:
        br = self.breakers[key]
        br.trip(now)
        self._m_opens.inc()
        self._instant(
            "open", key, reason=reason, loss=self.health[key].loss,
            reopen_at=br.reopen_at,
        )
        self._transitioned([key], OPEN)

    def _close(self, key) -> None:
        self.breakers[key].close()
        self.health[key].loss = 0.0
        self.health[key].reset_window()
        self._m_closes.inc()
        self._instant("close", key)
        self._transitioned([key], CLOSED)

    def _penalize(self, keys, weight: float) -> None:
        """Fold a loss signal that bypassed the counters (NACK/RTO) into
        the still-closed breakers among ``keys`` (floor-only, see
        :meth:`PlaneHealth.penalize`), then re-check the trip condition."""
        for key in keys:
            br = self.breakers.get(key)
            if br is not None and br.state == CLOSED:
                self.health[key].penalize(weight)
        self._maybe_trip(self.sim.now)


class PlaneRecovery(BreakerSet):
    """A :class:`BreakerSet` keyed by plane index over a bonded channel.

    Construct one per direction and it registers itself via
    ``bonded.set_recovery(self)``; from then on every ``transmit`` asks
    :meth:`pick` for a plane.  Evaluation is lazy (driven by the transmit
    path), so the object schedules no simulator events of its own.
    """

    def __init__(
        self,
        sim,
        bonded,
        *,
        rtt: float,
        config: BreakerConfig | None = None,
    ):
        planes = getattr(bonded, "planes", None)
        if not planes:
            raise ConfigError(
                "PlaneRecovery needs a BondedChannel (got a plain channel)"
            )
        self.bonded = bonded
        self.name = bonded.name
        n = len(planes)
        super().__init__(
            sim, range(n), rtt=rtt, config=config, track=f"recovery.{self.name}"
        )
        self._rr = 0
        self._listeners: list = []
        self._pacer = None

        scope = sim.telemetry.metrics.scope(self._track)
        self._m_probes = scope.counter("probes_sent")
        self._m_failovers = scope.counter("failover_packets")
        self._m_rto_signals = scope.counter("rto_signals")
        self._m_nack_signals = scope.counter("nack_signals")
        self._g_state = [scope.gauge(f"plane{i}_state") for i in range(n)]
        self._g_loss = [scope.gauge(f"plane{i}_loss") for i in range(n)]
        bonded.set_recovery(self)

    # -- reliability-layer signal feeds ---------------------------------------

    def add_listener(self, callback) -> None:
        """Register ``callback(plane_index)`` fired when a breaker opens."""
        self._listeners.append(callback)

    def attach_pacer(self, pacer) -> None:
        """Account for a sender-side :class:`repro.cc.Pacer`'s buckets.

        A pacer deliberately delays injection, which *reduces* the queue
        delay each plane's channel reports; folding the pacer's per-plane
        bucket deficit back into the latency signal keeps
        :class:`PlaneHealth` comparable between paced and unpaced runs
        (self-imposed pacing delay is congestion pressure, not plane
        sickness that should trip a breaker).  Pass ``None`` to detach.
        """
        self._pacer = pacer

    def note_rto(self, src_qpn: int | None = None) -> None:
        """An RTO fired: a loss signal ahead of the next stats poll."""
        self._m_rto_signals.inc()
        self._blame(src_qpn, weight=0.5)

    def note_nack(self, src_qpn: int | None = None, missing: int = 1) -> None:
        """A NACK reported ``missing`` chunks outstanding."""
        self._m_nack_signals.inc()
        self._blame(src_qpn, weight=min(1.0, 0.25 * max(missing, 1)))

    def _blame(self, src_qpn: int | None, weight: float) -> None:
        n = len(self.breakers)
        if self.bonded.spread == "flow" and src_qpn is not None:
            self._penalize([src_qpn % n], weight)
        else:
            # Packet spray (or unknown flow): the loss could have been on
            # any plane; spread a diluted penalty.
            self._penalize(range(n), weight / n)

    # -- what the loop asks of its owner ---------------------------------------

    def _sample(self, key: int, now: float) -> tuple[int, int, float]:
        plane = self.bonded.planes[key]
        queue_delay = plane.queue_delay
        if self._pacer is not None:
            queue_delay += self._pacer.plane_backlog(key % self._pacer.planes)
        snap = plane.stats
        return snap.packets_offered, snap.packets_dropped, queue_delay

    def _transitioned(self, keys: list[int], state: str) -> None:
        for plane in keys:
            self._g_state[plane].set(_STATE_GAUGE[state])
            if state == OPEN:
                for callback in self._listeners:
                    callback(plane)

    def _trace_args(self, key: int) -> dict:
        return {"plane": key}

    # -- spreading-policy hook (called by BondedChannel._pick) -----------------

    def pick(self, bonded, packet) -> int | None:
        """Choose a plane for ``packet``; None falls through to the default."""
        if self.evaluate(self.sim.now):
            for gauge, health in zip(self._g_loss, self.health.values()):
                gauge.set(health.loss)
        n = len(self.breakers)
        closed = [i for i in range(n) if self.breakers[i].state == CLOSED]
        probing = [i for i in range(n) if self.breakers[i].admits_probe]
        if len(closed) == n:
            return None  # all healthy: identical to the recovery-free path
        if bonded.spread == "flow":
            preferred = packet.src_qpn % n
            if preferred in closed:
                return preferred
            if self.breakers[preferred].admits_probe:
                self._count_probe(preferred)
                return preferred
            pool = closed if closed else probing
            if not pool:
                return preferred  # every plane open: fail static
            choice = pool[packet.src_qpn % len(pool)]
            if choice in probing and choice not in closed:
                self._count_probe(choice)
            self._m_failovers.inc()
            return choice
        # Packet spray: round-robin over closed planes plus any half-open
        # plane with probe budget left.
        pool = sorted(set(closed) | set(probing))
        if not pool:
            pool = list(range(n))  # every plane open: degrade to plain spray
        choice = pool[self._rr % len(pool)]
        self._rr += 1
        if self.breakers[choice].state == HALF_OPEN:
            self._count_probe(choice)
        if len(pool) < n:
            # The spray was diverted around at least one excluded plane.
            self._m_failovers.inc()
        return choice

    def _count_probe(self, plane: int) -> None:
        self.breakers[plane].probes_sent += 1
        self._m_probes.inc()
        self._instant("probe", plane)
