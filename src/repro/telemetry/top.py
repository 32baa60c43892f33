"""``repro top``: ASCII sparklines of a run's key time series.

A JSONL trace already carries the time dimension: counter events
(``ph: "C"``, e.g. ``cc_rate`` and ``net_backlog`` from the congestion
loop) are sampled series, and instant events (``ph: "i"``, e.g.
``loss_drop``, ``rto_fire``, ``slo_burn``) are point processes whose
per-bin counts are rates.  This module folds both into fixed-width
sparkline rows so a terminal shows the *shape* of a run -- the incast
collapse, the breaker flap, the SLO burn during a chaos window and the
recovery after it -- without Perfetto.

Used by the ``repro top`` CLI on a recorded trace.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.common.errors import ConfigError
from repro.experiments.report import Table
from repro.telemetry.trace import TraceEvent

#: Eight-level unicode block ramp (space = no data in that bin).
BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float | None], *, lo: float, hi: float) -> str:
    """Render one row of bin values against a fixed [lo, hi] scale."""
    if hi <= lo:
        return "".join(" " if v is None else BLOCKS[0] for v in values)
    span = hi - lo
    out = []
    for v in values:
        if v is None:
            out.append(" ")
            continue
        idx = int((v - lo) / span * (len(BLOCKS) - 1) + 0.5)
        out.append(BLOCKS[max(0, min(len(BLOCKS) - 1, idx))])
    return "".join(out)


def _format_value(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-3:
        return f"{value:.3g}"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


class SeriesRow:
    """One named series binned to a fixed width."""

    __slots__ = ("name", "bins", "lo", "hi", "last")

    def __init__(self, name: str, bins: list[float | None]):
        self.name = name
        self.bins = bins
        present = [v for v in bins if v is not None]
        self.lo = min(present) if present else 0.0
        self.hi = max(present) if present else 0.0
        self.last = present[-1] if present else 0.0

    def render(self) -> str:
        return sparkline(self.bins, lo=min(self.lo, 0.0), hi=self.hi)


def bin_counters(
    events: Iterable[TraceEvent], *, width: int, t0: float, t1: float
) -> list[SeriesRow]:
    """Counter (``ph: "C"``) events -> last-sample-per-bin step series."""
    series: dict[str, list[float | None]] = {}
    span = max(t1 - t0, 1e-12)
    for event in events:
        if event.ph != "C":
            continue
        idx = min(width - 1, int((event.ts - t0) / span * width))
        for key, value in event.args.items():
            if not isinstance(value, (int, float)):
                continue
            name = f"{event.track}.{key}" if key != "value" else event.track
            bins = series.get(name)
            if bins is None:
                series[name] = bins = [None] * width
            bins[idx] = float(value)  # last sample in the bin wins
    rows = []
    for name in sorted(series):
        bins = series[name]
        # Carry the previous sample through empty bins: a counter series
        # holds its value between samples (step semantics).
        prev: float | None = None
        for i, v in enumerate(bins):
            if v is None:
                bins[i] = prev
            else:
                prev = v
        rows.append(SeriesRow(name, bins))
    return rows


def bin_instants(
    events: Iterable[TraceEvent], *, width: int, t0: float, t1: float
) -> list[SeriesRow]:
    """Instant (``ph: "i"``) events -> per-bin occurrence counts."""
    series: dict[str, list[float | None]] = {}
    span = max(t1 - t0, 1e-12)
    for event in events:
        if event.ph != "i":
            continue
        idx = min(width - 1, int((event.ts - t0) / span * width))
        bins = series.get(event.name)
        if bins is None:
            series[event.name] = bins = [0.0] * width
        bins[idx] += 1.0
    return [SeriesRow(name, series[name]) for name in sorted(series)]


def top_table(
    events: list[TraceEvent],
    *,
    width: int = 48,
    limit: int = 24,
    match: str = "",
    instants: bool = True,
) -> Table:
    """The ``repro top`` view of a recorded trace (see module docstring)."""
    if width < 8:
        raise ConfigError(f"sparkline width must be >= 8, got {width}")
    if not events:
        raise ConfigError("trace contains no events")
    t0 = min(e.ts for e in events)
    t1 = max(e.ts for e in events)
    rows = bin_counters(events, width=width, t0=t0, t1=t1)
    if instants:
        rows += bin_instants(events, width=width, t0=t0, t1=t1)
    if match:
        rows = [r for r in rows if match in r.name]
    if not rows:
        raise ConfigError(
            f"no series match {match!r} (trace has counters/instants: "
            f"{sorted({e.name for e in events if e.ph in 'Ci'})})"
        )
    shown = rows[:limit]
    table = Table(
        title=f"top: {len(rows)} series over [{t0:.6f}s, {t1:.6f}s]",
        columns=["series", "spark", "min", "max", "last"],
        notes=(
            f"{width} bins of {(t1 - t0) / width * 1e3:.3f} ms; counter "
            "series hold their value between samples, instant series are "
            "per-bin counts"
            + ("" if len(rows) <= limit else f"; {len(rows) - limit} hidden")
        ),
    )
    for row in shown:
        table.add_row(
            row.name,
            row.render(),
            _format_value(row.lo),
            _format_value(row.hi),
            _format_value(row.last),
        )
    return table
