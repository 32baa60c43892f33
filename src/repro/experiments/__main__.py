"""Run every experiment and print its tables: ``python -m repro.experiments``.

Pass figure names to restrict, e.g. ``python -m repro.experiments fig09 fig13``.
"""

from __future__ import annotations

import sys
import time

ALL_FIGURES = [
    "fig02", "fig03", "fig09", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16",
]


def main(argv: list[str]) -> int:
    names = argv or ALL_FIGURES
    for name in names:
        if name not in ALL_FIGURES:
            print(f"unknown experiment {name!r}; choose from {ALL_FIGURES}")
            return 2
        module = __import__(f"repro.experiments.{name}", fromlist=["run"])
        start = time.perf_counter()
        result = module.run()
        tables = result if isinstance(result, list) else [result]
        for table in tables:
            print(table.render())
            print()
        print(f"[{name} finished in {time.perf_counter() - start:.1f} s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
