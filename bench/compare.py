"""Compare two run files of ``bench/run.py``, row by row.

    python3 bench/compare.py A.json B.json

One row per workload x end-to-end metric: both medians, both
inter-quartile ranges (as a share of their median), how much worse B's
median is than A's (as a share of A's median, the base of every ratio
here) and the bound ``BENCHMARK.json`` fixes.  Verdicts:

``worse``
    B's median is worse than A's by more than the bound.
``unresolved``
    Not worse, but one side's inter-quartile range is wider than the
    bound, so "no change" cannot be told from noise.
``ok``
    Neither.

Exits 1 if any row is ``worse``.  The ``sim_digest`` of each workload is
compared too: the simulated metrics are exact, so two runs of one seed
differ there only if simulated behaviour changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent


def verdict(a: dict, b: dict, *, better: str, bound: float) -> tuple[float, str]:
    """``(worsening as a share of A's median, verdict)`` for one row."""
    base = a["median"]
    delta = (b["median"] - base) / abs(base) if base else 0.0
    worsening = delta if better == "lower" else -delta
    if worsening > bound:
        return worsening, "worse"
    if max(layers.spread(a), layers.spread(b)) > bound:
        return worsening, "unresolved"
    return worsening, "ok"


def compare(run_a: dict, run_b: dict, spec: dict) -> tuple[list[str], bool]:
    """The report lines and whether any row is ``worse``."""
    lines = [
        f"{'workload':<13} {'metric':<18} {'unit':<9} {'A median':>13} "
        f"{'A iqr':>7} {'B median':>13} {'B iqr':>7} {'B worse by':>11} "
        f"{'bound':>6}  verdict",
    ]
    any_worse = False
    for workload in spec["workloads"]:
        name = workload["name"]
        a, b = run_a["workloads"].get(name), run_b["workloads"].get(name)
        if a is None or b is None:
            lines.append(f"{name:<13} missing from {'A' if a is None else 'B'}")
            continue
        for metric in spec["end_to_end"]:
            stat_a = a["end_to_end"][metric["name"]]
            stat_b = b["end_to_end"][metric["name"]]
            worsening, word = verdict(
                stat_a, stat_b, better=metric["better"], bound=metric["bound"]
            )
            any_worse |= word == "worse"
            lines.append(
                f"{name:<13} {metric['name']:<18} {metric['unit']:<9} "
                f"{stat_a['median']:>13.6g} {layers.spread(stat_a) * 100:>6.2f}% "
                f"{stat_b['median']:>13.6g} {layers.spread(stat_b) * 100:>6.2f}% "
                f"{worsening * 100:>+10.2f}% {metric['bound'] * 100:>5.0f}%  {word}"
            )
        same = a["sim_digest"] == b["sim_digest"] and a["seed"] == b["seed"]
        lines.append(
            f"{name:<13} sim_digest {'identical' if same else 'DIFFERENT'} "
            f"(A seed {a['seed']} {a['sim_digest'][:16]}, "
            f"B seed {b['seed']} {b['sim_digest'][:16]})"
        )
    lines.append(
        "iqr and 'B worse by' are shares of that side's and of A's median; "
        "a negative 'B worse by' is an improvement."
    )
    return lines, any_worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    run_a, run_b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, any_worse = compare(run_a, run_b, spec)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
