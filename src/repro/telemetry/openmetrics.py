"""OpenMetrics / Prometheus text exposition of a metrics registry.

Any :class:`~repro.telemetry.metrics.MetricsRegistry` snapshot renders to
the OpenMetrics text format (the Prometheus exposition format plus the
``# EOF`` terminator), so a simulated run's registry can be diffed with
``promtool``, scraped into a real Prometheus for dashboarding, or just
grepped with the same muscle memory operators already have:

* counters become ``<name>_total`` samples with ``# TYPE ... counter``;
* gauges become plain samples with ``# TYPE ... gauge``;
* log-bucketed histograms become classic cumulative ``_bucket{le="..."}``
  series (one ``le`` per power-of-two upper bound, plus ``+Inf``),
  ``_count`` and ``_sum``.

Dotted hierarchical names are flattened with underscores
(``fabric.tenant.t0.bytes_acked`` -> ``fabric_tenant_t0_bytes_acked``);
any character outside ``[a-zA-Z0-9_:]`` is replaced with ``_`` and a
leading digit is prefixed.  Rendering is read-only and deterministic:
names are emitted in sorted registry order, floats via ``repr`` so two
identical snapshots produce byte-identical expositions.
"""

from __future__ import annotations

import re

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(dotted: str) -> str:
    """Flatten a dotted registry name into a valid Prometheus name."""
    flat = _INVALID.sub("_", dotted.replace(".", "_"))
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return flat


def _format_value(value: int | float) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _histogram_lines(name: str, hist: Histogram) -> list[str]:
    lines = [f"# TYPE {name} histogram"]
    cumulative = 0
    for lo, hi, count in hist.buckets():
        cumulative += count
        le = "0.0" if hi == 0.0 else _format_value(hi)
        lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {hist.count}')
    lines.append(f"{name}_count {hist.count}")
    lines.append(f"{name}_sum {_format_value(hist.sum)}")
    return lines


def render_openmetrics(registry: MetricsRegistry, prefix: str = "") -> str:
    """The registry's current state as OpenMetrics text (ends in ``# EOF``)."""
    lines: list[str] = []
    for dotted in registry.names(prefix):
        instrument = registry.get(dotted)
        name = metric_name(dotted)
        if isinstance(instrument, Counter):
            lines.append(f"# TYPE {name}_total counter")
            lines.append(f"{name}_total {_format_value(instrument.value)}")
        elif isinstance(instrument, Gauge):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(instrument.value)}")
        else:
            lines.extend(_histogram_lines(name, instrument))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(registry: MetricsRegistry, path: str) -> int:
    """Render to ``path``; returns the number of sample lines written."""
    text = render_openmetrics(registry)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return sum(
        1 for line in text.splitlines() if line and not line.startswith("#")
    )
