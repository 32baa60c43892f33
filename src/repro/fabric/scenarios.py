"""Canned fabric experiments: fairness/isolation and open-loop scale.

Two reusable harnesses back the CLI, the benchmarks and CI:

* :func:`fairness_scenario` -- the isolation experiment.  Well-behaved
  ("victim") tenants and one misbehaving ("rogue") tenant share a
  dumbbell bottleneck.  The victim's goodput is measured twice: solo
  (its own schedule, empty fabric) and contended (everyone present).
  The ratio -- *retention* -- is the isolation metric: with per-tenant
  quota enforcement a rogue blasting at twice the bottleneck rate must
  not push retention below ~1; with enforcement off the same run shows
  the collapse the quotas exist to prevent.
* :func:`scale_scenario` -- the open-loop scale experiment: thousands of
  tenants with heavy-tailed arrivals on a two-tier WAN topology, used to
  demonstrate that a run of >= 100k messages completes and that the
  ``fabric.*`` metrics snapshot is a pure function of the seed.

Both build everything (topology, channels, workload, service) from a
frozen config + seed, so two calls with equal arguments produce
byte-identical metric snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.common.config import Bounded, ChannelConfig, bound, check_bounds
from repro.common.errors import ConfigError
from repro.common.units import KiB, MiB
from repro.fabric.report import (
    TenantReport,
    jain_index,
    metrics_digest,
    per_tenant_reports,
)
from repro.fabric.service import FabricService, FabricServiceConfig, TenantSpec
from repro.fabric.topology import FabricTopology, dumbbell, two_tier
from repro.sim.engine import SimConfig
from repro.stack import build_fabric
from repro.telemetry import Telemetry
from repro.workloads.openloop import OpenLoopConfig, Workload, generate

if TYPE_CHECKING:
    from repro.telemetry.slo import SloConfig, SloSummary, SloTracker


def arm_slo(
    service: FabricService,
    slo: SloConfig | None,
    *,
    default_window: float,
) -> SloTracker | None:
    """Attach a windowed sampler + SLO tracker over ``service``'s tenants.

    ``None`` in, ``None`` out (the scenarios' ``slo=None`` default).
    Sampling is lazy, event-free and RNG-free, so arming this changes no
    simulated outcome: same-seed runs stay byte-identical (``slo_burn``
    trace instants are the only additions, and only when tracing is on).
    """
    if slo is None:
        return None
    from repro.telemetry.slo import SloTracker
    from repro.telemetry.timeseries import TimeseriesSampler

    sampler = TimeseriesSampler(
        window=slo.window if slo.window is not None else default_window,
        capacity=slo.capacity,
    )
    service.sim.attach_sampler(sampler)
    specs = [
        slo.spec_for(state.spec.name, state.spec.quota_bps)
        for state in service.tenants.values()
    ]
    return SloTracker(sampler, specs)


#: The fairness dumbbell's host links (the bottleneck's rate is
#: ``FairnessConfig.bottleneck_bps``).
DUMBBELL_HOST_BPS = 25e9
DUMBBELL_HOST_KM = 0.05
DUMBBELL_BOTTLENECK_KM = 100.0
DUMBBELL_BUFFER_BYTES = 256 * KiB
DUMBBELL_ECN_THRESHOLD_BYTES = 64 * KiB
#: Victims' aggregate offered load as a fraction of the bottleneck.
VICTIM_LOAD_FRACTION = 0.5
#: Rogue's offered load as a fraction of the bottleneck (> 1 = abuse).
ROGUE_LOAD_FRACTION = 2.0
ROGUE_MESSAGE_BYTES = 256 * KiB


@dataclass(frozen=True)
class FairnessConfig(Bounded):
    """One fairness/isolation experiment (see module docstring)."""

    #: Well-behaved tenants, one per left-side host.
    victims: int = field(default=2, metadata=bound(ge=1))
    #: Whether the misbehaving tenant participates in the contended run.
    rogue: bool = True
    #: Whether the service enforces per-tenant quota buckets.
    enforce_quotas: bool = True
    cc: str = "swift"
    #: Arrival window in seconds (goodput window for both runs).
    duration: float = field(default=0.05, metadata=bound(gt=0))
    seed: int = 0
    mean_message_bytes: int = 64 * KiB
    max_message_bytes: int = 1 * MiB
    #: The dumbbell's bottleneck rate.
    bottleneck_bps: ClassVar[float] = 10e9
    #: Rogue's enforced quota as a fraction of the bottleneck.
    rogue_quota_fraction: ClassVar[float] = 0.3


@dataclass
class FairnessResult:
    """Solo vs contended goodput of the first victim, plus full reports."""

    config: FairnessConfig
    #: Victim t0's goodput alone on the fabric (bits/second).
    solo_goodput_bps: float
    #: Victim t0's goodput with all tenants present.
    contended_goodput_bps: float
    #: Jain's index across the victims' contended goodputs.
    jain: float
    #: Per-tenant reports of the contended run (victims + rogue).
    reports: list[TenantReport] = field(default_factory=list)
    #: ``fabric.*`` metrics digest of the contended run.
    digest: str = ""
    #: End-of-run SLO compliance (None unless ``slo=`` was armed).
    slo: SloSummary | None = None

    @property
    def retention(self) -> float:
        """Fraction of solo goodput the victim kept under contention."""
        if self.solo_goodput_bps <= 0:
            return 0.0
        return self.contended_goodput_bps / self.solo_goodput_bps


def _rogue_workload(config: FairnessConfig) -> Workload:
    """The rogue's open-loop schedule: fixed-size messages, fixed cadence.

    Deterministic by construction (no RNG): the abuse pattern should not
    change shape with the seed, only the victims' traffic does.
    """
    size = ROGUE_MESSAGE_BYTES
    offered = ROGUE_LOAD_FRACTION * config.bottleneck_bps
    interval = size * 8.0 / offered
    times = np.arange(0.0, config.duration, interval)
    wl_config = OpenLoopConfig(
        tenants=1,
        duration=config.duration,
        offered_load_bps=offered,
        size_dist="fixed",
        mean_message_bytes=size,
        max_message_bytes=size,
        min_message_bytes=size,
    )
    return Workload(
        config=wl_config,
        times=times,
        tenants=np.zeros(len(times), dtype=np.int32),
        sizes=np.full(len(times), size, dtype=np.int64),
        tenant_rates_bps=np.array([offered]),
    )


def two_tier_of(config, wan_buffer_bytes: int, **shape) -> FabricTopology:
    """``config``'s two-tier WAN (a scale or chaos config); its WAN links
    tail-drop at ``wan_buffer_bytes`` and mark ECN at a quarter of that."""
    return two_tier(
        tors=config.tors,
        hosts_per_tor=config.hosts_per_tor,
        host_link=ChannelConfig(
            bandwidth_bps=config.host_bps, distance_km=config.host_km
        ),
        wan_link=ChannelConfig(
            bandwidth_bps=config.wan_bps,
            distance_km=config.wan_km,
            buffer_bytes=wan_buffer_bytes,
            ecn_threshold_bytes=wan_buffer_bytes // 4,
        ),
        **shape,
    )


def submit_schedule(
    service: FabricService,
    workload: Workload,
    names: list[str],
    placement: dict[int, tuple[str, str]],
) -> None:
    """Feed one open-loop schedule into a service (open loop: submit at
    the workload's arrival times regardless of fabric state)."""
    for i in range(len(workload)):
        tenant = int(workload.tenants[i])
        src, dst = placement[tenant]
        service.submit(
            names[tenant],
            src,
            dst,
            int(workload.sizes[i]),
            at=float(workload.times[i]),
        )


def _fairness_fabric(
    config: FairnessConfig, *, telemetry: Telemetry | None = None
) -> FabricService:
    """Build the dumbbell and service (identical for solo and contended)."""
    left = config.victims + (1 if config.rogue else 0)
    host_link = ChannelConfig(
        bandwidth_bps=DUMBBELL_HOST_BPS,
        distance_km=DUMBBELL_HOST_KM,
    )
    bottleneck = ChannelConfig(
        bandwidth_bps=config.bottleneck_bps,
        distance_km=DUMBBELL_BOTTLENECK_KM,
        buffer_bytes=DUMBBELL_BUFFER_BYTES,
        ecn_threshold_bytes=DUMBBELL_ECN_THRESHOLD_BYTES,
    )
    topo = dumbbell(
        left_hosts=left, right_hosts=1, host_link=host_link,
        bottleneck=bottleneck,
    )
    network = build_fabric(topo, seed=config.seed, telemetry=telemetry)
    service_config = FabricServiceConfig(
        cc=config.cc, enforce_quotas=config.enforce_quotas
    )
    return FabricService(network, config=service_config)


def _victim_specs(config: FairnessConfig) -> list[TenantSpec]:
    # Victims get an equal share of the bottleneck as quota -- generous
    # (their offered load is below it) but present, so enforcement treats
    # everyone through the same mechanism.
    quota = config.bottleneck_bps / max(config.victims, 1)
    return [
        TenantSpec(name=f"t{i}", quota_bps=quota, compliant=True)
        for i in range(config.victims)
    ]


def fairness_scenario(
    config: FairnessConfig | None = None,
    *,
    telemetry: Telemetry | None = None,
    slo: SloConfig | None = None,
) -> FairnessResult:
    """Run solo baseline + contended fairness experiment; see module doc.

    ``slo`` arms the telemetry time plane on the *contended* run: a
    windowed :class:`~repro.telemetry.timeseries.TimeseriesSampler` over
    ``fabric.tenant.*`` plus an :class:`~repro.telemetry.slo.SloTracker`
    evaluating every tenant against the config's default targets.
    """
    config = config if config is not None else FairnessConfig()
    victims_wl = generate(
        OpenLoopConfig(
            tenants=config.victims,
            duration=config.duration,
            offered_load_bps=VICTIM_LOAD_FRACTION * config.bottleneck_bps,
            mean_message_bytes=config.mean_message_bytes,
            max_message_bytes=config.max_message_bytes,
        ),
        seed=config.seed,
    )
    specs = _victim_specs(config)
    names = [s.name for s in specs]
    placement = {i: (f"hL{i}", "hR0") for i in range(config.victims)}

    # Solo baseline: victim t0's sub-schedule, otherwise empty fabric.
    service = _fairness_fabric(config)
    service.add_tenant(specs[0])
    submit_schedule(service, victims_wl.for_tenant(0), names, placement)
    service.sim.run()
    solo = {
        r.name: r for r in per_tenant_reports(service, config.duration)
    }[names[0]].goodput_bps

    # Contended run: all victims plus (optionally) the rogue.
    service = _fairness_fabric(config, telemetry=telemetry)
    for spec in specs:
        service.add_tenant(spec)
    submit_schedule(service, victims_wl, names, placement)
    if config.rogue:
        rogue_spec = TenantSpec(
            name="rogue",
            quota_bps=config.rogue_quota_fraction * config.bottleneck_bps,
            compliant=False,
        )
        service.add_tenant(rogue_spec)
        submit_schedule(
            service,
            _rogue_workload(config),
            ["rogue"],
            {0: (f"hL{config.victims}", "hR0")},
        )
    tracker = arm_slo(service, slo, default_window=config.duration / 25.0)
    service.sim.run()

    reports = per_tenant_reports(service, config.duration)
    by_name = {r.name: r for r in reports}
    victim_goodputs = [by_name[n].goodput_bps for n in names]
    return FairnessResult(
        config=config,
        solo_goodput_bps=solo,
        contended_goodput_bps=by_name[names[0]].goodput_bps,
        jain=jain_index(victim_goodputs),
        reports=reports,
        digest=metrics_digest(service.sim.telemetry.metrics),
        slo=tracker.summary(duration=config.duration) if tracker else None,
    )


def smoke_config(*, seed: int = 0, cc: str = "swift") -> FairnessConfig:
    """The CI preset: 3 hosts (victim, rogue, receiver), 2 tenants.

    Small enough for a seconds-scale CI job, adversarial enough that the
    >= 50% retention assertion would fail without quota enforcement.
    """
    return FairnessConfig(
        victims=1,
        rogue=True,
        duration=0.02,
        seed=seed,
        cc=cc,
        mean_message_bytes=32 * KiB,
        max_message_bytes=256 * KiB,
    )


@dataclass(frozen=True)
class ScaleConfig(Bounded):
    """Open-loop scale run on the two-tier WAN topology."""

    tenants: int = field(default=1000, metadata=bound(ge=1))
    duration: float = 0.05
    #: Aggregate offered load; the default yields >= 100k messages.
    offered_load_bps: float = 280e9
    tors: int = field(default=4, metadata=bound(ge=1))
    hosts_per_tor: int = field(default=4, metadata=bound(ge=1))
    cc: str = "swift"
    seed: int = 0
    mean_message_bytes: int = 16 * KiB
    max_message_bytes: int = 512 * KiB
    #: Pareto tail of per-tenant rate weights (elephants and mice).
    rate_skew: float = 1.8
    #: Run the simulator with the fluid fast path (``--fast-path``): whole
    #: segment journeys are booked synchronously instead of relayed hop by
    #: hop.  Same seed + same flag stays byte-identical; fluid vs packet
    #: digests differ (documented approximation, see docs/simulation.md).
    fluid: bool = False
    #: The two-tier links (``two_tier_of``).
    host_bps: ClassVar[float] = 25e9
    wan_bps: ClassVar[float] = 100e9
    host_km: ClassVar[float] = 0.05
    wan_km: ClassVar[float] = 200.0
    #: Per-tenant quota as a multiple of the tenant's fair share.
    quota_headroom: ClassVar[float] = 8.0

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.tors * self.hosts_per_tor < 2:
            raise ConfigError("scale topology needs >= 2 hosts")


@dataclass
class ScaleResult:
    """Outcome of one scale run."""

    config: ScaleConfig
    messages: int
    completed: int
    failed: int
    total_bytes: int
    #: Simulated time when the last flow resolved.
    drained_at: float
    #: ``fabric.*`` metrics digest (same seed => same digest).
    digest: str
    reports: list[TenantReport] = field(default_factory=list)
    #: End-of-run SLO compliance (None unless ``slo=`` was armed).
    slo: SloSummary | None = None


def scale_scenario(
    config: ScaleConfig | None = None,
    *,
    telemetry: Telemetry | None = None,
    slo: SloConfig | None = None,
) -> ScaleResult:
    """Run the open-loop scale experiment; see module docstring."""
    config = config if config is not None else ScaleConfig()
    topo = two_tier_of(config, 4 * MiB)
    network = build_fabric(
        topo, seed=config.seed, sim_config=SimConfig(fluid=config.fluid),
        telemetry=telemetry,
    )
    sim = network.sim
    service = FabricService(
        network, config=FabricServiceConfig(cc=config.cc, max_flows_per_qp=256)
    )

    workload = generate(
        OpenLoopConfig(
            tenants=config.tenants,
            duration=config.duration,
            offered_load_bps=config.offered_load_bps,
            mean_message_bytes=config.mean_message_bytes,
            max_message_bytes=config.max_message_bytes,
            rate_skew=config.rate_skew,
        ),
        seed=config.seed,
    )
    hosts = topo.hosts
    names = []
    placement = {}
    fair_share = config.offered_load_bps / config.tenants
    for t in range(config.tenants):
        name = f"t{t}"
        names.append(name)
        service.add_tenant(
            TenantSpec(
                name=name, quota_bps=config.quota_headroom * fair_share
            )
        )
        # Deterministic spread: tenants cycle source hosts; destinations
        # sit half the host list away, so most pairs cross the WAN core.
        src = hosts[t % len(hosts)]
        dst = hosts[(t + len(hosts) // 2) % len(hosts)]
        if src == dst:
            dst = hosts[(t + 1) % len(hosts)]
        placement[t] = (src, dst)
    submit_schedule(service, workload, names, placement)
    tracker = arm_slo(service, slo, default_window=config.duration / 25.0)
    sim.run()

    failed = sum(1 for t in service.flows if t.failed)
    return ScaleResult(
        config=config,
        messages=len(service.flows),
        completed=service.completed_flows,
        failed=failed,
        total_bytes=workload.total_bytes,
        drained_at=sim.now,
        digest=metrics_digest(sim.telemetry.metrics),
        reports=per_tenant_reports(service, config.duration),
        slo=tracker.summary(duration=config.duration) if tracker else None,
    )
