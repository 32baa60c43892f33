"""Sim-time windowed metric series: ring-buffered, lazy, event-free.

Point-in-time snapshots hide everything transient: a breaker flap, an
incast collapse-and-recovery, an SLO burn during a chaos window are all
invisible if they are no longer true at end-of-run.  This module adds
the time dimension without touching determinism:

* A :class:`TimeseriesSampler` attaches to a
  :class:`~repro.sim.engine.Simulator` and closes fixed-width sim-time
  windows *lazily*: the engine's ``step()`` checks one attribute and one
  float compare per event, and when the just-popped event's timestamp
  crosses the next window boundary the sampler snapshots every watched
  instrument.  No heap events are scheduled, no RNG is drawn — armed and
  disarmed runs of the same seed produce byte-identical traces (the same
  trick as the recovery plane's lazy breaker evaluation).
* Each watched instrument gets a :class:`WindowedSeries`: a fixed-capacity
  ring (``collections.deque(maxlen=...)``) of per-window values.  Counters
  store cumulative values (deltas/rates are derived on read), gauges store
  the value at the boundary, histograms store ``(count, sum, zeros,
  buckets)`` snapshots so diffing two consecutive snapshots yields genuine
  *per-window* percentiles via
  :func:`~repro.telemetry.metrics.percentile_from_counts`.
* Watching is prefix-based (``sampler.watch("fabric.tenant")``) and
  re-resolves lazily when the registry grows, so instruments created
  mid-run (a tenant admitted late, a pacer built on first use) join the
  sample set at the next window.

Windows close at exact multiples of ``window``; a value recorded at
boundary ``B`` reflects registry state as of the last event strictly
before (or exactly at) ``B`` — the sampler runs before the boundary
event's callbacks.  Long idle gaps skip ahead: at most ``capacity``
windows are materialized per poll, so a quiet simulation costs O(capacity)
per gap, not O(gap / window).

The sampler publishes its own meta metrics under ``timeseries.*``
(``windows_closed``, ``points_recorded``, ``series_active``) and never
samples itself.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from repro.common.errors import ConfigError
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    percentile_from_counts,
)


class HistogramWindow:
    """The delta of a histogram between two window closes."""

    __slots__ = ("count", "sum", "zeros", "buckets")

    def __init__(self, count: int, total: float, zeros: int, buckets: dict[int, int]):
        self.count = count
        self.sum = total
        self.zeros = zeros
        self.buckets = buckets

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Percentile of the observations made *within* this window."""
        return percentile_from_counts(self.zeros, self.buckets, self.count, q)


class WindowedSeries:
    """Fixed-capacity ring of per-window samples of one instrument.

    ``kind`` is ``"counter"``, ``"gauge"`` or ``"histogram"``.  Counter
    points are *cumulative* (monotone); use :meth:`deltas` / :meth:`rates`
    / :meth:`delta_over` for per-window views.  Histogram points are
    ``(count, sum, zeros, buckets)`` snapshot tuples; use
    :meth:`histogram_window` for the per-lookback diff.
    """

    __slots__ = ("name", "kind", "times", "values")

    def __init__(self, name: str, kind: str, capacity: int):
        self.name = name
        self.kind = kind
        self.times: deque[float] = deque(maxlen=capacity)
        self.values: deque = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self.times)

    def _record(self, boundary: float, instrument) -> None:
        if self.kind == "histogram":
            zeros, buckets = instrument.bucket_counts()
            self.values.append((instrument.count, instrument.sum, zeros, buckets))
        else:
            self.values.append(instrument.value)
        self.times.append(boundary)

    # -- derived views ---------------------------------------------------------

    def latest(self):
        """The most recent recorded point (or None before the first window)."""
        return self.values[-1] if self.values else None

    def points(self) -> list[tuple[float, float]]:
        """``(window_end, value)`` pairs, oldest first (counters/gauges)."""
        return list(zip(self.times, self.values))

    def deltas(self) -> list[tuple[float, float]]:
        """Per-point increments of a cumulative counter series.

        The first retained point diffs against 0 at t=0: counters start at
        zero when created, so the baseline is exact for a series watched
        from the first window and a safe lower bound for one whose older
        points were evicted by the ring.
        """
        out = []
        prev = 0.0
        for t, v in zip(self.times, self.values):
            out.append((t, v - prev))
            prev = v
        return out

    def rates(self) -> list[tuple[float, float]]:
        """Per-point rates (delta / actual spacing) of a counter series."""
        out = []
        prev_t, prev_v = 0.0, 0.0
        for t, v in zip(self.times, self.values):
            span = t - prev_t
            out.append((t, (v - prev_v) / span if span > 0 else 0.0))
            prev_t, prev_v = t, v
        return out

    def delta_over(self, windows: int) -> float:
        """Increment of a counter over the last ``windows`` closed windows."""
        if windows < 1:
            raise ConfigError(f"lookback must be >= 1 window, got {windows}")
        if not self.values:
            return 0.0
        if windows >= len(self.values):
            return self.values[-1]
        return self.values[-1] - self.values[-1 - windows]

    def span_over(self, windows: int) -> float:
        """Actual seconds covered by the last ``windows`` closed windows."""
        if windows < 1:
            raise ConfigError(f"lookback must be >= 1 window, got {windows}")
        if windows >= len(self.times):
            return self.times[-1]
        return self.times[-1] - self.times[-1 - windows]

    def histogram_window(self, windows: int) -> HistogramWindow:
        """Histogram delta over the last ``windows`` closed windows."""
        if self.kind != "histogram":
            raise ConfigError(f"{self.name!r} is a {self.kind} series")
        count, total, zeros, buckets = self.values[-1]
        if windows < len(self.values):
            c0, s0, z0, b0 = self.values[-1 - windows]
            count -= c0
            total -= s0
            zeros -= z0
            buckets = {
                e: n - b0.get(e, 0)
                for e, n in buckets.items()
                if n - b0.get(e, 0)
            }
        return HistogramWindow(count, total, zeros, buckets)


class TimeseriesSampler:
    """Lazy windowed sampler over a :class:`MetricsRegistry` (module doc)."""

    def __init__(
        self,
        *,
        window: float = 0.005,
        capacity: int = 256,
        prefixes: tuple[str, ...] | list[str] = (),
    ):
        if window <= 0:
            raise ConfigError(f"window must be > 0 seconds, got {window}")
        if capacity < 2:
            raise ConfigError(f"capacity must be >= 2 windows, got {capacity}")
        self.window = float(window)
        self.capacity = int(capacity)
        self._prefixes: list[str] = []
        for prefix in prefixes:
            self.watch(prefix)
        self._registry: MetricsRegistry | None = None
        self.sim = None
        #: Next boundary to close; ``inf`` until bound to a simulator, so
        #: the engine's hot-path compare stays false for a detached sampler.
        self.next_deadline = float("inf")
        self._series: dict[str, WindowedSeries] = {}
        self._names: list[str] = []
        self._registry_len = -1
        self._listeners: list[Callable[[float], None]] = []
        self.windows_closed = 0

    # -- configuration ---------------------------------------------------------

    def watch(self, prefix: str) -> None:
        """Track every instrument under ``prefix`` (may be armed mid-run)."""
        if prefix not in self._prefixes:
            self._prefixes.append(prefix)
            self._registry_len = -1  # force a refresh at the next poll

    def on_window(self, fn: Callable[[float], None]) -> None:
        """Call ``fn(window_end)`` after each window closes (SLO hook)."""
        self._listeners.append(fn)

    def bind(self, sim) -> None:
        """Attach to a simulator; resets all series to the new timeline."""
        self.sim = sim
        self._registry = sim.telemetry.metrics
        self._series.clear()
        self._names = []
        self._registry_len = -1
        self.windows_closed = 0
        self.next_deadline = self.window
        scope = self._registry.scope("timeseries")
        self._m_windows = scope.counter("windows_closed")
        self._m_points = scope.counter("points_recorded")
        self._g_series = scope.gauge("series_active")

    # -- inspection ------------------------------------------------------------

    def names(self) -> list[str]:
        """Sorted names of the series materialized so far."""
        return list(self._names)

    def series(self, name: str) -> WindowedSeries | None:
        return self._series.get(name)

    # -- sampling (called from Simulator.step) ---------------------------------

    def _refresh(self) -> None:
        registry = self._registry
        if len(registry) == self._registry_len:
            return
        for prefix in self._prefixes:
            for name in registry.names(prefix):
                if name in self._series or name.startswith("timeseries"):
                    continue  # never sample our own meta metrics
                instrument = registry.get(name)
                if isinstance(instrument, Counter):
                    kind = "counter"
                elif isinstance(instrument, Gauge):
                    kind = "gauge"
                else:
                    kind = "histogram"
                self._series[name] = WindowedSeries(name, kind, self.capacity)
        self._names = sorted(self._series)
        self._registry_len = len(registry)
        self._g_series.set(len(self._names))

    def poll(self, now: float) -> None:
        """Close every window boundary <= ``now`` (idempotent, event-free)."""
        boundary = self.next_deadline
        if now < boundary:
            return
        window = self.window
        # An idle gap longer than the ring would record points destined for
        # immediate eviction; skip straight to the last `capacity` windows.
        missed = int((now - boundary) / window)
        skip = missed + 1 - self.capacity
        if skip > 0:
            boundary += skip * window
        self._refresh()
        registry = self._registry
        names = self._names
        series = self._series
        while boundary <= now:
            for name in names:
                series[name]._record(boundary, registry.get(name))
            self.windows_closed += 1
            self._m_windows.inc()
            self._m_points.inc(len(names))
            for fn in self._listeners:
                fn(boundary)
            boundary += window
        self.next_deadline = boundary
