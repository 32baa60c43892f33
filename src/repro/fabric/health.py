"""Per-edge health tracking and breaker-driven rerouting.

The recovery plane's keyed breaker loop
(:class:`repro.recovery.health.BreakerSet`; the state machine is
described once, in ``docs/robustness.md``) with directed fabric edges as
its keys: every edge channel's drop/backlog counters are the samples,
service-layer RTOs the penalties.  This module owns only what an edge's
transitions *mean* for the fabric:

* An **open** edge is excluded from routing: the monitor invalidates the
  network's route cache on every exclusion change and Dijkstra re-runs
  without the edge (lexicographic tie-breaks keep the recomputation a
  pure function of (topology, excluded set), so same-seed runs stay
  byte-identical).
* A **half-open** edge is routable again: the next route recomputation
  pulls traffic back onto the primary path, and that traffic *is* the
  probe.  Deliveries close the breaker; drops re-trip it with doubled
  (capped) backoff, so a permanently dead edge is retried ever more
  rarely while a transient flap heals at the first quiet interval.

Evaluation is driven from :meth:`FabricNetwork.send` (every launch
attempt, including the no-route retry loop), consumes no random draws,
and schedules no simulator events -- a drained simulation still
terminates and a monitored-but-healthy run produces byte-identical
traces to an unmonitored one.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.recovery.health import CLOSED, HALF_OPEN, OPEN, BreakerConfig, BreakerSet

__all__ = ["EdgeHealthMonitor", "BreakerConfig", "CLOSED", "HALF_OPEN", "OPEN"]


class EdgeHealthMonitor(BreakerSet):
    """A :class:`BreakerSet` keyed by directed edge over a
    :class:`~repro.fabric.topology.FabricNetwork`.

    Construction registers the monitor on the network
    (``network.set_health(self)``); from then on every ``send`` drives
    :meth:`on_datapath` and routing excludes edges whose breaker is open.
    ``rtt`` is the reference timescale for poll/backoff intervals
    (default: twice the costliest edge, i.e. the slowest span's RTT).
    """

    _event = "edge"
    _cat = "fabric"

    def __init__(
        self,
        network,
        *,
        rtt: float | None = None,
        config: BreakerConfig | None = None,
    ):
        name = "fabric.edge_health"
        if rtt is None:
            rtt = 2.0 * max(
                edge.cost for edge in network.topology.edges.values()
            )
        super().__init__(
            network.sim, sorted(network.channels), rtt=rtt, config=config,
            track=name,
        )
        self.network = network
        self.name = name
        self._open: set[tuple[str, str]] = set()

        scope = self.sim.telemetry.metrics.scope(name)
        self._m_half_opens = scope.counter("breaker_half_opens")
        self._m_rto_signals = scope.counter("rto_signals")
        self._g_open = scope.gauge("edges_open")
        network.set_health(self)

    # -- queries ---------------------------------------------------------------

    def excluded(self) -> frozenset[tuple[str, str]]:
        """Directed edges routing must avoid (breaker open).

        Half-open edges are *not* excluded: traffic routed across them is
        the probe that decides whether they close or re-trip.
        """
        return frozenset(self._open)

    def state(self, u: str, v: str) -> str:
        """Breaker state of the ``u`` -> ``v`` edge."""
        try:
            return self.breakers[(u, v)].state
        except KeyError:
            raise ConfigError(f"no edge {u!r} -> {v!r}") from None

    def states(self) -> dict[tuple[str, str], str]:
        """Every non-closed edge's breaker state (for reports/tests)."""
        return {
            key: br.state
            for key, br in self.breakers.items()
            if br.state != CLOSED
        }

    # -- signal feeds ----------------------------------------------------------

    def note_rto(self, path: tuple[str, ...]) -> None:
        """A service-layer RTO fired for a packet launched along ``path``.

        The loss could have been on any hop: spread a diluted floor-only
        penalty across the path's edges (exactly the recovery plane's
        packet-spray attribution), then re-check trip conditions.
        """
        edges = list(zip(path, path[1:]))
        self._m_rto_signals.inc()
        self._penalize(edges, 0.5 / len(edges))

    def on_datapath(self, now: float) -> None:
        """The network's transmit path drives the loop (:meth:`evaluate`)."""
        self.evaluate(now)

    # -- what the loop asks of its owner ---------------------------------------

    def _sample(self, key: tuple[str, str], now: float) -> tuple[int, int, float]:
        channel = self.network.channels[key]
        snap = channel.stats
        return (
            snap.packets_offered,
            snap.packets_dropped,
            max(0.0, channel.next_free - now),
        )

    def _transitioned(self, keys: list[tuple[str, str]], state: str) -> None:
        if state == CLOSED:
            return
        if state == OPEN:
            self._open.update(keys)
        else:
            self._open.difference_update(keys)
            self._m_half_opens.inc(len(keys))
        self._g_open.set(len(self._open))
        # An open edge leaves routing; a half-open one is routable again:
        # the primary path comes back and the traffic it attracts is the
        # probe.  Once per batch -- recomputing per key would route with
        # later expired edges still excluded.
        self.network.routes_changed()

    def _trace_args(self, key: tuple[str, str]) -> dict:
        return {"edge": f"{key[0]}->{key[1]}"}

    def summary(self) -> dict[str, float]:
        """The ``fabric.edge_health.*`` counters as a plain dict (CLI JSON)."""
        return {
            "breaker_opens": self._m_opens.value,
            "breaker_closes": self._m_closes.value,
            "breaker_half_opens": self._m_half_opens.value,
            "rto_signals": self._m_rto_signals.value,
            "edges_open": len(self._open),
        }
