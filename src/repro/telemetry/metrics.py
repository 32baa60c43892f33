"""Hierarchically scoped metrics: counters, gauges, log-bucketed histograms.

One :class:`MetricsRegistry` per simulation run holds every instrument the
stack creates, keyed by a dotted hierarchical name (``sdr.dc-a.retransmits``,
``dpa.dc-b.dpa.w3.cqes``).  Components grab instruments once at construction
time through a :class:`MetricsScope` and increment them on the hot path; the
registry is the single source of truth the ``repro report`` CLI and the
benchmarks read.

The registry can be created *disabled*, in which case nothing is ever
registered or retained: a counter or gauge request returns a fresh,
unregistered instrument (hot paths store into its ``value`` slot, which a
shared null object could not take), and a histogram request returns the
shared no-op :data:`NULL_HISTOGRAM`.

Histograms are log-bucketed in powers of two via ``math.frexp``: a value
``v`` lands in the bucket covering ``[2**(e-1), 2**e)`` where
``v = m * 2**e`` with ``m in [0.5, 1)``.  That makes ``observe`` O(1) with
no configuration, spans the full float range (nanosecond latencies to
multi-second completions in one instrument), and keeps percentile estimates
within a factor of two -- the resolution that matters for the paper's
order-of-magnitude tail analysis.
"""

from __future__ import annotations

import math
from typing import Any

from repro.common.errors import ConfigError


class Counter:
    """A monotonically increasing count; hot paths do ``c.value += n``."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def snapshot(self) -> int | float:
        return self.value


class Gauge:
    """A value that goes up and down; hot paths do ``g.value = v``."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: int | float) -> None:
        self.value = value

    def add(self, delta: int | float) -> None:
        self.value += delta

    def snapshot(self) -> int | float:
        return self.value


class Histogram:
    """Log-bucketed (base-2) histogram of non-negative observations."""

    __slots__ = ("name", "_buckets", "_zeros", "count", "sum", "_min", "_max")

    def __init__(self, name: str):
        self.name = name
        self._buckets: dict[int, int] = {}
        self._zeros = 0
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: int | float) -> None:
        if value != value:  # NaN would silently land in frexp's 0-bucket
            raise ConfigError(f"histogram {self.name!r} observed NaN")
        if value < 0:
            raise ConfigError(
                f"histogram {self.name!r} observed negative value {value}"
            )
        self.count += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value == 0:
            self._zeros += 1
            return
        exponent = math.frexp(value)[1]  # value in [2**(e-1), 2**e)
        self._buckets[exponent] = self._buckets.get(exponent, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    def buckets(self) -> list[tuple[float, float, int]]:
        """Sorted ``(lower_bound, upper_bound, count)`` triples."""
        out: list[tuple[float, float, int]] = []
        if self._zeros:
            out.append((0.0, 0.0, self._zeros))
        for e in sorted(self._buckets):
            out.append((2.0 ** (e - 1), 2.0**e, self._buckets[e]))
        return out

    def percentile(self, q: float) -> float:
        """Approximate percentile: geometric midpoint of the q-th bucket.

        An empty histogram reports 0.0 for every ``q``; a histogram that
        has only observed zeros likewise reports 0.0 (the zero bucket
        covers every percentile).  Both are pinned by unit tests.
        """
        if not 0 <= q <= 100:
            raise ConfigError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        target = q / 100.0 * self.count
        seen = self._zeros
        if seen >= target and seen:
            return 0.0
        # Some bucket is reached: ``_zeros`` and the counts sum to ``count``.
        for e in sorted(self._buckets):
            seen += self._buckets[e]
            if seen >= target:
                break
        return math.sqrt(2.0 ** (e - 1) * 2.0**e)

    def snapshot(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }


class _NullHistogram:
    __slots__ = ()
    name = "<null>"
    count = 0
    sum = 0.0
    mean = 0.0
    min = 0.0
    max = 0.0

    def observe(self, value: int | float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0


#: Shared no-op histogram handed out by a disabled registry.
NULL_HISTOGRAM = _NullHistogram()


class MetricsScope:
    """A name-prefix view of a registry (``scope.counter("x")`` -> ``p.x``)."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: "MetricsRegistry", prefix: str):
        self._registry = registry
        self._prefix = prefix

    def _join(self, name: str) -> str:
        return f"{self._prefix}.{name}" if self._prefix else name

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._join(name))

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(self._join(name))

    def histogram(self, name: str) -> Histogram:
        return self._registry.histogram(self._join(name))


class MetricsRegistry:
    """Get-or-create store of named instruments, hierarchically scoped."""

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    # -- factories ------------------------------------------------------------

    def _get_or_create(self, name: str, cls):
        if not name:
            raise ConfigError("metric name must be non-empty")
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, requested {cls.__name__}"
                )
            return existing
        instrument = cls(name)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return Counter(name)  # counts, but is never registered
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return Gauge(name)  # holds a value, but is never registered
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM  # type: ignore[return-value]
        return self._get_or_create(name, Histogram)

    def scope(self, prefix: str) -> MetricsScope:
        return MetricsScope(self, prefix)

    # -- inspection -----------------------------------------------------------

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """The instrument registered under ``name``, or None."""
        return self._instruments.get(name)

    def names(self, prefix: str = "") -> list[str]:
        """Sorted metric names, optionally restricted to a dotted prefix."""
        if not prefix:
            return sorted(self._instruments)
        dotted = prefix + "."
        return sorted(
            n for n in self._instruments if n == prefix or n.startswith(dotted)
        )

    def value(self, name: str, default: int | float = 0) -> int | float:
        """Scalar value of a counter/gauge (``default`` if unregistered)."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return default
        if isinstance(instrument, Histogram):
            raise ConfigError(f"metric {name!r} is a histogram; use get()")
        return instrument.value

    def snapshot(self, prefix: str = "") -> dict[str, Any]:
        """Point-in-time ``{name: scalar-or-dict}`` in sorted name order."""
        return {n: self._instruments[n].snapshot() for n in self.names(prefix)}

    def __len__(self) -> int:
        return len(self._instruments)
