"""Pure maths shared by the benchmark: summaries, tails, layer roll-up.

Nothing here imports ``repro`` or NumPy, so the parent process, the
comparison tool and the tests can use it without paying for the
simulator's imports.
"""

from __future__ import annotations

import math
import statistics

#: The repo's own packages that dispatch engine callbacks, in budget
#: order.  ``other`` catches every callback defined anywhere else (the
#: benchmark's own driver generators, ``repro.recovery``, ...).
LAYERS = (
    "sim", "net", "verbs", "dpa", "sdr", "reliability", "ec", "cc",
    "fabric", "telemetry", "other",
)

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def summary(values: list[float]) -> dict:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them.

    One sample has no quartiles; it is reported as its own q1 and q3 so
    the inter-quartile range reads 0 rather than being invented.
    """
    if not values:
        raise ValueError("summary of no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def spread(stat: dict) -> float:
    """Inter-quartile range as a share of the median (0 for a 0 median)."""
    if stat["median"] == 0:
        return 0.0
    return (stat["q3"] - stat["q1"]) / abs(stat["median"])


def tail_percentile(samples: int) -> float:
    """Highest of p99.9 / p99 / p90 with >= 10 samples beyond it.

    Falls back to p90 when even that is unsupported (miniature runs),
    so a tail is always reported; the sample count is printed beside it.
    """
    for pct in TAIL_PERCENTILES:
        # 1e-9 absorbs the float error in e.g. 1000 * (1 - 0.99).
        if samples * (1.0 - pct / 100.0) + 1e-9 >= MIN_BEYOND:
            return pct
    return TAIL_PERCENTILES[-1]


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list (no interpolation,
    so the value is one the simulation actually produced)."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def layer_of(category: str) -> str:
    """Budget layer of one ``SimProfiler`` category (``module:qualname``).

    ``repro.<layer>.*`` modules map to their layer; everything else,
    including the benchmark's own driver generators, is ``other``.
    """
    module = category.split(":", 1)[0]
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS[:-1]:
        return parts[1]
    return "other"


def rollup(categories: list[dict]) -> dict[str, dict]:
    """Roll profiler categories up to ``{layer: {busy_s, dispatches}}``.

    Every layer is present (idle ones read 0) so the budget has the same
    rows on every workload.
    """
    budget = {layer: {"busy_s": 0.0, "dispatches": 0} for layer in LAYERS}
    for entry in categories:
        row = budget[layer_of(entry["category"])]
        row["busy_s"] += entry["wall_seconds"]
        row["dispatches"] += entry["events"]
    return budget
