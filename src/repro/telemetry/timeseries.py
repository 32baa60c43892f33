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
  store cumulative values (increments are derived on read), gauges store
  the value at the boundary.  Histograms are not sampled.
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
from repro.telemetry.metrics import Counter, Gauge, MetricsRegistry


class WindowedSeries:
    """Fixed-capacity ring of per-window samples of one counter or gauge.

    Counter points are *cumulative* (monotone); use :meth:`delta_over` for
    the increment over a lookback.
    """

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str, capacity: int):
        self.name = name
        self.times: deque[float] = deque(maxlen=capacity)
        self.values: deque = deque(maxlen=capacity)

    def _record(self, boundary: float, instrument) -> None:
        self.values.append(instrument.value)
        self.times.append(boundary)

    # -- derived views ---------------------------------------------------------

    def latest(self):
        """The most recent recorded point (or None before the first window)."""
        return self.values[-1] if self.values else None

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
                if isinstance(registry.get(name), (Counter, Gauge)):
                    self._series[name] = WindowedSeries(name, self.capacity)
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
