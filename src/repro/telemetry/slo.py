"""Declarative per-tenant SLOs with multi-window burn-rate detection.

A planetary-scale fabric is operated against service-level objectives,
not raw counters.  This module turns the per-tenant counters the fabric
publishes (``fabric.tenant.<name>.*``) into SLIs, compares them against
declared :class:`SloSpec` targets, and detects *burns* the way SRE
practice does: a violation only pages when the error budget is burning
faster than a threshold over **both** a short and a long lookback window
(multi-window multi-burn-rate alerting), which suppresses single-window
noise while still catching sustained degradation quickly.

SLIs (each optional per spec; unset targets are not evaluated):

``goodput``
    ACKed bits/second over the lookback as a fraction of the tenant's
    declared ``quota_bps``.  Target: a minimum fraction (e.g. 0.5 = the
    tenant should realize at least half its quota while it has demand).
``delivery``
    Flows completed / flows resolved (completed + failed) over the
    lookback.  Target: a minimum ratio (e.g. 0.95).
``retx``
    Retransmitted segments / (retransmitted + ACKed) over the lookback.
    Target: a maximum overhead fraction.

Every SLI is *demand-gated*: a tenant with no outstanding flows and no
recent submissions is idle, not violating (a drained fabric burns no
budget).  Error fractions are normalized to [0, 1]; ``burn_rate =
error / error_budget``.  A tenant-SLI burns in a window when both the
short- and long-lookback burn rates exceed ``BurnPolicy.threshold``.

Burns are observable three ways, all deterministic and event-free (the
tracker rides the sampler's window-close callback, which runs inside the
engine's existing event dispatch):

* an ``slo_burn`` trace instant (``cat="slo"``) per burning tenant-SLI;
* ``slo.<tenant>.*`` metrics: per-SLI gauges of the current value, burn
  counters, and a ``burn_rate`` gauge;
* an end-of-run compliance report (:meth:`SloTracker.summary`) rendered
  as a table by ``repro fabric`` and gated by ``--slo`` (non-zero exit
  when any declared target ends out of compliance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.common.config import Bounded, bound, check_bounds
from repro.common.errors import ConfigError
from repro.experiments.report import Table
from repro.telemetry.timeseries import TimeseriesSampler

#: SLI short names in evaluation order.
SLI_NAMES = ("goodput", "delivery", "retx")


@dataclass(frozen=True)
class SloSpec(Bounded):
    """One tenant's declared objectives (unset targets are skipped)."""

    tenant: str = field(metadata=bound(gt=""))
    #: The tenant's contracted rate (needed for the ``goodput`` SLI).
    quota_bps: float | None = field(default=None, metadata=bound(gt=0, optional=True))
    #: Minimum realized fraction of quota while the tenant has demand.
    goodput_fraction: float | None = field(
        default=None, metadata=bound(gt=0, le=1, optional=True)
    )
    #: Minimum completed / resolved flow ratio.
    delivery_ratio: float | None = field(
        default=None, metadata=bound(gt=0, le=1, optional=True)
    )
    #: Maximum retransmit overhead: retx / (retx + acked) segments.
    max_retx_overhead: float | None = field(
        default=None, metadata=bound(gt=0, le=1, optional=True)
    )
    #: Mean error fraction the tenant may sustain before burn_rate = 1.
    error_budget: float = field(default=0.1, metadata=bound(gt=0, le=1))

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.goodput_fraction is not None and self.quota_bps is None:
            raise ConfigError(
                f"tenant {self.tenant!r}: goodput_fraction needs quota_bps"
            )

    @property
    def targets(self) -> dict[str, float]:
        """Declared ``{sli: target}`` (only the set ones)."""
        out = {}
        if self.goodput_fraction is not None:
            out["goodput"] = self.goodput_fraction
        if self.delivery_ratio is not None:
            out["delivery"] = self.delivery_ratio
        if self.max_retx_overhead is not None:
            out["retx"] = self.max_retx_overhead
        return out


@dataclass(frozen=True)
class BurnPolicy(Bounded):
    """Multi-window burn-rate alerting knobs."""

    #: Short lookback in closed windows (catches fast burns).
    short_windows: int = field(default=2, metadata=bound(ge=1))
    #: Long lookback in closed windows (suppresses single-window noise).
    long_windows: int = 8
    #: Burn-rate multiple (error / budget) that counts as burning.
    threshold: float = field(default=1.0, metadata=bound(gt=0))

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.long_windows < self.short_windows:
            raise ConfigError(
                f"long_windows ({self.long_windows}) must be >= "
                f"short_windows ({self.short_windows})"
            )


@dataclass
class SloStatus:
    """End-of-run compliance of one declared tenant-SLI."""

    tenant: str
    sli: str
    target: float
    #: Lifetime SLI value (None when the tenant never had signal).
    value: float | None
    #: Windows in which this tenant-SLI burned.
    burn_windows: int
    compliant: bool


@dataclass
class SloSummary:
    """Every declared tenant-SLI's end-of-run status + total burn count."""

    rows: list[SloStatus] = field(default_factory=list)
    burn_windows: int = 0
    windows_evaluated: int = 0

    @property
    def compliant(self) -> bool:
        return all(r.compliant for r in self.rows)

    @property
    def violations(self) -> list[SloStatus]:
        return [r for r in self.rows if not r.compliant]

    def table(self) -> Table:
        t = Table(
            title="SLO compliance (slo.*)",
            columns=["tenant", "sli", "target", "value", "burn_windows", "ok"],
            notes=(
                f"{self.burn_windows} burning tenant-SLI windows over "
                f"{self.windows_evaluated} evaluated; burn = short & long "
                "lookback error rates above budget x threshold"
            ),
        )
        for r in self.rows:
            t.add_row(
                r.tenant, r.sli, round(r.target, 6),
                "-" if r.value is None else round(r.value, 6),
                r.burn_windows, "yes" if r.compliant else "NO",
            )
        return t


class SloTracker:
    """Evaluate :class:`SloSpec` targets on every closed sampler window."""

    def __init__(self, sampler: TimeseriesSampler, specs: list[SloSpec]):
        seen: set[str] = set()
        for spec in specs:
            if spec.tenant in seen:
                raise ConfigError(f"duplicate SloSpec for {spec.tenant!r}")
            seen.add(spec.tenant)
        self.sampler = sampler
        self.specs = list(specs)
        self.prefix = prefix = "fabric.tenant"
        self.policy = BurnPolicy()
        self.windows_evaluated = 0
        #: (tenant, sli) -> burning window count.
        self.burns: dict[tuple[str, str], int] = {}
        self._scopes: dict[str, object] = {}
        sampler.watch(prefix)
        sampler.on_window(self._on_window)

    # -- series access ---------------------------------------------------------

    def _metric(self, tenant: str, leaf: str) -> str:
        return f"{self.prefix}.{tenant}.{leaf}"

    def _delta(self, tenant: str, leaf: str, windows: int) -> float:
        series = self.sampler.series(self._metric(tenant, leaf))
        return series.delta_over(windows) if series is not None else 0.0

    def _span(self, tenant: str, windows: int) -> float:
        return self.sampler.series(
            self._metric(tenant, "bytes_acked")
        ).span_over(windows)

    def _cumulative(self, tenant: str, leaf: str) -> float:
        series = self.sampler.series(self._metric(tenant, leaf))
        value = series.latest() if series is not None else None
        return value if value is not None else 0.0

    def _scope(self, tenant: str):
        scope = self._scopes.get(tenant)
        if scope is None:
            registry = self.sampler.sim.telemetry.metrics
            scope = {
                "burn_windows": registry.counter(f"slo.{tenant}.burn_windows"),
                "burn_rate": registry.gauge(f"slo.{tenant}.burn_rate"),
                "values": {
                    sli: registry.gauge(f"slo.{tenant}.{sli}")
                    for sli in SLI_NAMES
                },
                "sli_burns": {
                    sli: registry.counter(f"slo.{tenant}.{sli}_burn_windows")
                    for sli in SLI_NAMES
                },
            }
            self._scopes[tenant] = scope
        return scope

    # -- SLI evaluation --------------------------------------------------------

    def _active(self, spec: SloSpec, windows: int) -> bool:
        """Demand gate: did the tenant want service over the lookback?"""
        submitted = self._cumulative(spec.tenant, "flows_submitted")
        resolved = self._cumulative(
            spec.tenant, "flows_completed"
        ) + self._cumulative(spec.tenant, "flows_failed")
        if submitted - resolved > 0:
            return True  # flows outstanding right now
        return self._delta(spec.tenant, "flows_submitted", windows) > 0

    def _sli_error(
        self, spec: SloSpec, sli: str, target: float, windows: int
    ) -> tuple[float | None, float | None]:
        """``(value, error)`` over a lookback; ``None`` = no signal."""
        tenant = spec.tenant
        if sli == "goodput":
            span = self._span(tenant, windows)
            rate = self._delta(tenant, "bytes_acked", windows) * 8.0 / span
            value = rate / spec.quota_bps
            error = max(0.0, (target - value) / target)
            return value, min(1.0, error)
        if sli == "delivery":
            done = self._delta(tenant, "flows_completed", windows)
            failed = self._delta(tenant, "flows_failed", windows)
            if done + failed <= 0:
                return None, None
            value = done / (done + failed)
            error = max(0.0, (target - value) / target)
            return value, min(1.0, error)
        # retx overhead
        acked = self._delta(tenant, "segments_acked", windows)
        retx = self._delta(tenant, "retransmits", windows)
        if acked + retx <= 0:
            return None, None
        value = retx / (acked + retx)
        error = max(0.0, (value - target) / max(target, 1e-9))
        return value, min(1.0, error)

    def _on_window(self, end: float) -> None:
        self.windows_evaluated += 1
        policy = self.policy
        for spec in self.specs:
            if not self._active(spec, policy.long_windows):
                continue
            scope = self._scope(spec.tenant)
            worst_burn = 0.0
            for sli, target in spec.targets.items():
                value, short_err = self._sli_error(
                    spec, sli, target, policy.short_windows
                )
                _, long_err = self._sli_error(
                    spec, sli, target, policy.long_windows
                )
                if value is not None:
                    scope["values"][sli].set(value)
                if short_err is None or long_err is None:
                    continue
                short_burn = short_err / spec.error_budget
                long_burn = long_err / spec.error_budget
                burn = min(short_burn, long_burn)
                worst_burn = max(worst_burn, burn)
                if (
                    short_burn > policy.threshold
                    and long_burn > policy.threshold
                ):
                    key = (spec.tenant, sli)
                    self.burns[key] = self.burns.get(key, 0) + 1
                    scope["burn_windows"].inc()
                    scope["sli_burns"][sli].inc()
                    tracer = self.sampler.sim.telemetry.trace
                    if tracer.enabled:
                        tracer.instant(
                            "slo_burn", cat="slo",
                            track=f"slo.{spec.tenant}",
                            sli=sli, burn=round(burn, 4),
                            window_end=round(end, 9),
                        )
            scope["burn_rate"].set(worst_burn)

    # -- end-of-run report -----------------------------------------------------

    def _lifetime(self, spec: SloSpec, sli: str, duration: float) -> float | None:
        tenant = spec.tenant
        registry = self.sampler.sim.telemetry.metrics
        if sli == "goodput":
            bits = registry.value(self._metric(tenant, "bytes_acked")) * 8.0
            return bits / duration / spec.quota_bps
        if sli == "delivery":
            done = registry.value(self._metric(tenant, "flows_completed"))
            failed = registry.value(self._metric(tenant, "flows_failed"))
            if done + failed <= 0:
                return None
            return done / (done + failed)
        acked = registry.value(self._metric(tenant, "segments_acked"))
        retx = registry.value(self._metric(tenant, "retransmits"))
        if acked + retx <= 0:
            return None
        return retx / (acked + retx)

    def summary(self, *, duration: float) -> SloSummary:
        """End-of-run compliance vs the declared targets.

        ``duration`` is the offered-load window the lifetime goodput SLI
        normalizes over (the scenario's arrival window, not the drain
        time, so delayed bytes count against the tenant's goodput).
        """
        if duration <= 0:
            raise ConfigError(f"duration must be > 0, got {duration}")
        rows: list[SloStatus] = []
        for spec in self.specs:
            for sli, target in spec.targets.items():
                value = self._lifetime(spec, sli, duration)
                if value is None:
                    compliant = True  # never had signal: vacuously met
                elif sli == "retx":
                    compliant = value <= target
                else:
                    compliant = value >= target
                rows.append(SloStatus(
                    tenant=spec.tenant, sli=sli, target=target, value=value,
                    burn_windows=self.burns.get((spec.tenant, sli), 0),
                    compliant=compliant,
                ))
        return SloSummary(
            rows=rows,
            burn_windows=sum(self.burns.values()),
            windows_evaluated=self.windows_evaluated,
        )


@dataclass(frozen=True)
class SloConfig(Bounded):
    """Scenario/CLI-level arming knobs: sampler shape + default targets.

    ``window=None`` lets the scenario pick a natural width (a few RTTs
    for chaos runs, duration/25 for fairness/scale runs).
    """

    window: float | None = field(default=None, metadata=bound(gt=0, optional=True))
    goodput_fraction: float | None = 0.25
    delivery_ratio: float | None = 0.9
    max_retx_overhead: float | None = None
    #: Sampler ring capacity, in windows.
    capacity: ClassVar[int] = 256
    #: Every spec's error budget.
    error_budget: ClassVar[float] = 0.25

    def spec_for(self, tenant: str, quota_bps: float | None) -> SloSpec:
        """A :class:`SloSpec` for one tenant under these defaults.

        The goodput SLI needs a quota; tenants without one get the other
        declared SLIs only.
        """
        return SloSpec(
            tenant=tenant,
            quota_bps=quota_bps,
            goodput_fraction=(
                self.goodput_fraction if quota_bps is not None else None
            ),
            delivery_ratio=self.delivery_ratio,
            max_retx_overhead=self.max_retx_overhead,
            error_budget=self.error_budget,
        )
