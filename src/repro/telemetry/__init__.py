"""repro.telemetry -- unified metrics and simulated-time tracing.

The subsystem has two halves, owned by one :class:`Telemetry` facade that
every :class:`~repro.sim.engine.Simulator` carries:

* ``telemetry.metrics`` -- a :class:`~repro.telemetry.metrics.MetricsRegistry`
  of hierarchically named counters/gauges/histograms.  Metrics are **on by
  default**: a counter increment is as cheap as the ad-hoc ``stats.x += 1``
  fields it replaces, and the registry is the single source the
  ``repro report`` CLI reads.
* ``telemetry.trace`` -- a :class:`~repro.telemetry.trace.Tracer` emitting
  structured events stamped with simulated time.  Tracing is **off by
  default**; hot paths guard every emission with ``if tracer.enabled:`` so
  the disabled cost is one attribute check.

Metric naming scheme (see ``docs/observability.md``):

=====================  ==========================================
prefix                 producer
=====================  ==========================================
``net.<chan>``         :class:`repro.net.channel.Channel`
``cq.<name>``          :class:`repro.verbs.cq.CompletionQueue`
``verbs.<dev>.qp<n>``  UC/RC QPs
``sdr.<dev>``          :class:`repro.sdr.qp.SdrQp`
``sr|ec|gbn.<dev>``    reliability senders/receivers
``adaptive.<dev>``     adaptive provisioning
``dpa.<worker>``       :class:`repro.dpa.worker.DpaWorker`
``lineage``            :class:`repro.telemetry.lineage.LineageAnalyzer`
=====================  ==========================================
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.common import lazy_exports
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsScope,
)
from repro.telemetry.trace import (
    ChromeTraceSink,
    JsonlSink,
    RingBufferSink,
    TraceEvent,
    TraceSink,
    Tracer,
    flow_key,
)

if TYPE_CHECKING:
    from repro.telemetry.lineage import (
        ATTRIBUTION_CATEGORIES,
        LineageAnalyzer,
        MessageLineage,
    )
    from repro.telemetry.openmetrics import (
        metric_name,
        render_openmetrics,
        write_openmetrics,
    )
    from repro.telemetry.slo import (
        BurnPolicy,
        SloConfig,
        SloSpec,
        SloStatus,
        SloSummary,
        SloTracker,
    )
    from repro.telemetry.timeseries import (
        TimeseriesSampler,
        WindowedSeries,
    )

#: Subsystems no simulation executes: each loads when a name is first read.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "lineage": ("ATTRIBUTION_CATEGORIES", "LineageAnalyzer", "MessageLineage"),
    "openmetrics": ("metric_name", "render_openmetrics", "write_openmetrics"),
    "slo": (
        "BurnPolicy", "SloConfig", "SloSpec", "SloStatus", "SloSummary",
        "SloTracker",
    ),
    "timeseries": ("TimeseriesSampler", "WindowedSeries"),
})

__all__ = [
    "ATTRIBUTION_CATEGORIES",
    "BurnPolicy",
    "Counter",
    "Gauge",
    "Histogram",
    "LineageAnalyzer",
    "MessageLineage",
    "MetricsRegistry",
    "MetricsScope",
    "SloConfig",
    "SloSpec",
    "SloStatus",
    "SloSummary",
    "SloTracker",
    "Telemetry",
    "TimeseriesSampler",
    "TraceEvent",
    "TraceSink",
    "Tracer",
    "WindowedSeries",
    "RingBufferSink",
    "JsonlSink",
    "ChromeTraceSink",
    "flow_key",
    "metric_name",
    "render_openmetrics",
    "write_openmetrics",
]


class Telemetry:
    """Facade bundling one metrics registry and one tracer per simulation.

    Two optional riders extend the facade with the *time* dimension:

    * ``timeseries`` -- a :class:`TimeseriesSampler` that the owning
      :class:`~repro.sim.engine.Simulator` arms at construction, closing
      fixed-width sim-time windows over the registry (lazy, event-free,
      RNG-free -- same-seed traces stay byte-identical).
    * ``profiler`` -- a :class:`~repro.sim.profile.SimProfiler` attributing
      the engine's *wall-clock* time to event-handler categories.
    """

    def __init__(
        self,
        *,
        metrics: bool = True,
        trace: bool = False,
        trace_sinks: Iterable[TraceSink] = (),
        timeseries: TimeseriesSampler | None = None,
        profiler=None,
    ):
        self.metrics = MetricsRegistry(enabled=metrics)
        self.trace = Tracer(enabled=trace, sinks=trace_sinks)
        self.timeseries = timeseries
        self.profiler = profiler
        self._sequences: dict[str, int] = {}

    def bind(self, sim) -> None:
        """Point the tracer's clock at ``sim.now`` (called by Simulator)."""
        self.trace.bind_clock(lambda: sim.now)

    def unique(self, label: str) -> str:
        """Deterministic per-label sequence names: ``cq0``, ``cq1``, ...

        Used for components constructed without an explicit name, so metric
        names stay stable across same-seed runs.
        """
        index = self._sequences.get(label, 0)
        self._sequences[label] = index + 1
        return f"{label}{index}"
