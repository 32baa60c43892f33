"""Fabric chaos plane: topology-level fault injection + survival harness.

:mod:`repro.faults` injects pathologies into one link; planetary-scale
failures kill *graph elements*: a ToR switch dies and takes every
incident link with it, a WAN span flaps, the entire core partitions.
This module translates fabric-addressed fault windows (``edge_down`` /
``node_crash``, see :mod:`repro.faults.schedule`) into per-edge
:class:`~repro.faults.FaultyChannel` wrappers on a
:class:`~repro.fabric.topology.FabricNetwork`, and packages the canned
survival experiments behind ``repro fabric --chaos <name>``:

``tor_crash``
    ``tor0`` dies permanently.  With dual-homed hosts
    (``host_uplinks=2``) and an :class:`~repro.fabric.health.
    EdgeHealthMonitor` installed, breakers on the dead uplinks open,
    routing re-runs without them and every flow completes over the
    surviving ToR.  With static routing (``health=False``) every flow
    touching ``tor0`` burns its retry budget and dies -- the documented
    counterfactual the chaos gate exists to prevent.
``wan_flap``
    The ``tor0 <-> wan0`` span blacks out twice, healing in between.
    Flows detour over the redundant core router during each flap;
    half-open probes pull traffic back onto the primary span after it
    heals.
``fabric_partition``
    Every WAN core router crashes for a long window: inter-rack traffic
    has *no* route.  Flows wait out ``partition_deadline`` and then fail
    cleanly with :class:`~repro.common.errors.DeliveryError` (delivered
    bitmap attached) -- never a wedge, never an infinite retry loop.
    This schedule is exempt from the survival gate by design.

Everything is deterministic: schedules are pure data, installation walks
links in sorted order, and all chaos randomness draws from named RNG
substreams -- same seed, byte-identical ``fabric.*`` digests and traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.common.config import Bounded, bound
from repro.common.errors import ConfigError
from repro.common.units import KiB
from repro.fabric.health import EdgeHealthMonitor
from repro.fabric.report import metrics_digest
from repro.fabric.scenarios import arm_slo, two_tier_of
from repro.fabric.service import FabricService, FabricServiceConfig, TenantSpec
from repro.fabric.topology import FabricNetwork
from repro.faults.channel import FaultyChannel
from repro.faults.inject import install_edge_faults
from repro.faults.schedule import FaultSchedule, FaultWindow
from repro.stack import build_fabric
from repro.telemetry import SloConfig, SloSummary, Telemetry

__all__ = [
    "FABRIC_SCHEDULES",
    "ChaosConfig",
    "ChaosResult",
    "chaos_scenario",
    "fabric_schedule",
    "install_fabric_faults",
]


# -- named fabric schedules ------------------------------------------------------
#
# Windows are expressed in multiples of the fabric's reference RTT (the
# canonical cross-rack path RTT), so one name works across geometries.


def _tor_crash(rtt: float) -> FaultSchedule:
    """``tor0`` dies at 5 RTTs and never comes back."""
    return FaultSchedule(
        (FaultWindow(kind="node_crash", start=5 * rtt, node="tor0"),),
        name="tor_crash",
    )


def _wan_flap(rtt: float) -> FaultSchedule:
    """The ``tor0 <-> wan0`` span blacks out twice with a healthy gap."""
    return FaultSchedule(
        (
            FaultWindow(
                kind="edge_down", start=5 * rtt, end=15 * rtt,
                edge=("tor0", "wan0"),
            ),
            FaultWindow(
                kind="edge_down", start=30 * rtt, end=40 * rtt,
                edge=("tor0", "wan0"),
            ),
        ),
        name="wan_flap",
    )


def _fabric_partition(rtt: float, *, wan_routers: int = 2) -> FaultSchedule:
    """Every WAN core dies for a window far longer than the partition
    deadline: inter-rack flows must fail cleanly, not retry forever."""
    return FaultSchedule(
        tuple(
            FaultWindow(
                kind="node_crash", start=5 * rtt, end=120 * rtt,
                node=f"wan{w}",
            )
            for w in range(wan_routers)
        ),
        name="fabric_partition",
    )


FABRIC_SCHEDULES: dict[str, object] = {
    "tor_crash": _tor_crash,
    "wan_flap": _wan_flap,
    "fabric_partition": _fabric_partition,
}


def fabric_schedule(
    name: str, *, rtt: float, wan_routers: int = 2
) -> FaultSchedule:
    """Instantiate one of :data:`FABRIC_SCHEDULES` for a fabric of ``rtt``."""
    builder = FABRIC_SCHEDULES.get(name)
    if builder is None:
        raise ConfigError(
            f"unknown fabric chaos schedule {name!r}; known: "
            f"{', '.join(sorted(FABRIC_SCHEDULES))}"
        )
    if rtt <= 0:
        raise ConfigError(f"rtt must be > 0, got {rtt}")
    if name == "fabric_partition":
        return builder(rtt, wan_routers=wan_routers)
    return builder(rtt)


# -- installation ----------------------------------------------------------------


def install_fabric_faults(
    network: FabricNetwork, schedule: FaultSchedule
) -> dict[tuple[str, str], tuple[FaultyChannel, FaultyChannel]]:
    """Arm ``schedule``'s fabric windows against ``network``.

    ``edge_down`` windows target their named link; ``node_crash`` windows
    expand to an ``edge_down`` per edge incident to the crashed node.
    Windows landing on the same physical link merge into one per-link
    schedule, and links are wrapped in sorted order -- installation is a
    pure function of (topology, schedule), no RNG, no dict-order leaks.
    Returns the (forward, reverse) wrappers by sorted undirected link.
    """
    per_link: dict[tuple[str, str], list[FaultWindow]] = {}
    for w in schedule.fabric_windows:
        if w.kind == "edge_down":
            targets = [w.edge]
        else:  # node_crash: every incident edge goes dark
            if w.node not in network.topology.nodes:
                raise ConfigError(f"node_crash targets unknown node {w.node!r}")
            targets = [(w.node, peer) for peer in network.topology.neighbors(w.node)]
        for u, v in targets:
            if (u, v) not in network.channels:
                raise ConfigError(f"no edge {u!r} -> {v!r}")
            key = (u, v) if u < v else (v, u)
            per_link.setdefault(key, []).append(
                FaultWindow(kind="edge_down", start=w.start, end=w.end)
            )
    wrappers = {}
    for key in sorted(per_link):
        windows = tuple(
            sorted(per_link[key], key=lambda w: (w.start, w.end))
        )
        wrappers[key] = install_edge_faults(
            network, key[0], key[1],
            FaultSchedule(windows, name=schedule.name),
        )
    return wrappers


# -- the survival experiment -----------------------------------------------------


#: Fixed-cadence workload: every host sends this many messages to its
#: cross-rack peer over the arrival window (deterministic, RNG-free).
MESSAGES_PER_HOST = 6
#: Arrival window in reference-RTT multiples.
DURATION_RTTS = 15.0
#: Partition deadline in reference-RTT multiples (shorter than the
#: ``fabric_partition`` window, so its flows fail cleanly).
PARTITION_DEADLINE_RTTS = 8.0


@dataclass(frozen=True)
class ChaosConfig(Bounded):
    """One fabric chaos run (see module docstring)."""

    #: Named fabric schedule, or ``None`` for a fault-free baseline.
    schedule: str | None = field(
        default="tor_crash", metadata=bound(one_of=FABRIC_SCHEDULES, optional=True)
    )
    #: ``False`` skips the edge-health monitor: static routing, the
    #: documented near-total-loss counterfactual.
    health: bool = True
    seed: int = 0
    cc: str = "swift"
    hosts_per_tor: int = field(default=2, metadata=bound(ge=1))
    #: Two-tier shape with enough redundancy to survive single faults:
    #: dual-homed hosts, two WAN cores, four racks (so cross-rack flows
    #: genuinely cross the WAN even with ``host_uplinks=2``).
    tors: ClassVar[int] = 4
    wan_routers: ClassVar[int] = 2
    host_uplinks: ClassVar[int] = 2
    message_bytes: ClassVar[int] = 128 * KiB
    #: The two-tier links (``two_tier_of``).
    host_bps: ClassVar[float] = 25e9
    wan_bps: ClassVar[float] = 10e9
    host_km: ClassVar[float] = 0.05
    wan_km: ClassVar[float] = 100.0


@dataclass
class ChaosResult:
    """Outcome of one chaos run."""

    config: ChaosConfig
    #: The reference RTT (canonical cross-rack path) the windows scale by.
    rtt: float
    messages: int
    completed: int
    failed: int
    #: Failures that carry a :class:`DeliveryError` (partition deadline).
    delivery_errors: int
    #: Simulated time when the last flow resolved.
    drained_at: float
    #: ``fabric.*`` metrics digest (same seed => same digest).
    digest: str
    #: ``fabric.reroute.*`` counters (see ``FabricService.reroute_stats``).
    reroute: dict = field(default_factory=dict)
    #: ``fabric.edge_health.*`` counters (empty when ``health=False``).
    edge_health: dict = field(default_factory=dict)
    #: Final non-closed breaker states, ``"u->v"`` -> state.
    breaker_states: dict = field(default_factory=dict)
    #: End-of-run SLO compliance (None unless ``slo=`` was armed).
    slo: SloSummary | None = None
    #: Windows in which any tenant-SLI burned (fault visibility signal).
    slo_burn_windows: int = 0

    @property
    def survival(self) -> float:
        """Fraction of messages that completed despite the chaos."""
        return self.completed / self.messages


def chaos_scenario(
    config: ChaosConfig | None = None,
    *,
    telemetry: Telemetry | None = None,
    slo: SloConfig | None = None,
) -> ChaosResult:
    """Run one fabric chaos experiment; see module docstring.

    ``slo`` arms the windowed sampler + per-tenant SLO burn tracking:
    during a fault window the affected tenants' delivery/retransmit SLIs
    burn (``slo_burn`` trace instants fire when tracing is on) and
    recover after the window -- the time-domain visibility a point-in-
    time snapshot cannot give.
    """
    config = config if config is not None else ChaosConfig()
    topo = two_tier_of(
        config,
        512 * KiB,
        wan_routers=config.wan_routers,
        host_uplinks=config.host_uplinks,
    )
    network = build_fabric(topo, seed=config.seed, telemetry=telemetry)
    sim = network.sim

    # Reference RTT: the canonical cross-rack path (rack 0 -> opposite
    # rack), measured on the healthy topology.
    across = config.tors // 2
    rtt = network.path_rtt("h0-0", f"h{across}-0")

    monitor = None
    if config.health:
        monitor = EdgeHealthMonitor(network)

    service_config = FabricServiceConfig(
        cc=config.cc, partition_deadline=PARTITION_DEADLINE_RTTS * rtt
    )
    service = FabricService(network, config=service_config)

    if config.schedule is not None:
        install_fabric_faults(network, fabric_schedule(
            config.schedule, rtt=rtt, wan_routers=config.wan_routers
        ))

    # Deterministic cross-rack workload: host h{t}-{h} streams to its
    # peer h{(t + tors//2) % tors}-{h}, staggered so submissions never
    # collide on one instant.
    hosts = topo.hosts
    duration = DURATION_RTTS * rtt
    interval = duration / MESSAGES_PER_HOST
    for i, src in enumerate(hosts):
        t, h = src[1:].split("-")
        dst = f"h{(int(t) + across) % config.tors}-{h}"
        tenant = f"t{src[1:]}"
        service.add_tenant(TenantSpec(name=tenant))
        offset = interval * i / max(len(hosts), 1)
        for j in range(MESSAGES_PER_HOST):
            service.submit(
                tenant, src, dst, config.message_bytes,
                at=j * interval + offset,
            )
    tracker = arm_slo(service, slo, default_window=2.0 * rtt)
    sim.run()

    failed = sum(1 for t in service.flows if t.failed)
    breaker_states = {}
    edge_health: dict = {}
    if monitor is not None:
        edge_health = monitor.summary()
        breaker_states = {
            f"{u}->{v}": state for (u, v), state in monitor.states().items()
        }
    return ChaosResult(
        config=config,
        rtt=rtt,
        messages=len(service.flows),
        completed=service.completed_flows,
        failed=failed,
        delivery_errors=service.delivery_errors,
        drained_at=sim.now,
        digest=metrics_digest(sim.telemetry.metrics),
        reroute=service.reroute_stats(),
        edge_health=edge_health,
        breaker_states=breaker_states,
        slo=tracker.summary(duration=duration) if tracker else None,
        slo_burn_windows=sum(tracker.burns.values()) if tracker else 0,
    )
