"""Benchmark-suite helpers.

Every benchmark regenerates one paper table/figure (possibly at reduced
scale to keep runtimes sane), asserts the paper's qualitative shape, and
prints the regenerated table so ``pytest benchmarks/ --benchmark-only -s``
doubles as the figure dump.  Wall clock is measured and compared in
``bench/`` (see ``bench/README.md``); this suite writes no results.
"""

from __future__ import annotations

from repro.experiments.report import Table


def show(*tables: Table) -> None:
    """Print regenerated tables beneath the benchmark output."""
    for table in tables:
        print()
        print(table.render())


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)
