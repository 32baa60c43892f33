"""Telemetry overhead: disabled instruments must be (near) free.

The registry's contract is that a simulation instrumented everywhere can
run with telemetry off at essentially the cost of the uninstrumented seed.
Two checks enforce it:

* A micro-benchmark: a disabled registry's counter ``inc`` (an
  unregistered ``Counter``: what a cold call site executes when the
  registry is off; hot sites store into ``value`` directly) must cost
  within a small factor of a bare attribute increment -- the closest
  stand-in for the pre-registry ``self.stats.x += 1`` pattern.
* A macro check: the same DES workload (SR over a lossy WAN) run with a
  disabled registry must be within a modest factor of the enabled-registry
  run -- i.e. metrics bookkeeping, enabled *or* disabled, is a small slice
  of total simulation cost.  Min-of-N wall times keep scheduler noise out.
"""

from __future__ import annotations

import time

from repro.experiments.report import Table
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry.demo import run_demo

from conftest import run_once, show

N_INC = 200_000
DES_REPEATS = 3
# Generous slack: the assertion guards against pathological regressions
# (e.g. disabled counters doing dict lookups per inc), not benchmark noise.
MACRO_SLACK = 1.20


class _Plain:
    __slots__ = ("x",)

    def __init__(self):
        self.x = 0


def _time_best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _micro_null_inc() -> tuple[float, float]:
    """Seconds for N bare ``+= 1`` vs N disabled-registry ``inc()``."""
    plain = _Plain()
    null_counter = MetricsRegistry(enabled=False).counter("x")

    def bare():
        for _ in range(N_INC):
            plain.x += 1

    def null():
        for _ in range(N_INC):
            null_counter.inc()

    return _time_best(bare, 3), _time_best(null, 3)


def _des_seconds(*, metrics: bool) -> float:
    def once():
        run_demo(
            protocol="sr",
            messages=2,
            message_bytes=1 << 20,
            drop=0.01,
            seed=7,
            telemetry=Telemetry(metrics=metrics),
        )

    return _time_best(once, DES_REPEATS)


def test_disabled_telemetry_is_cheap(benchmark):
    def measure():
        bare_s, null_s = _micro_null_inc()
        on_s = _des_seconds(metrics=True)
        off_s = _des_seconds(metrics=False)
        table = Table(
            title="Telemetry overhead",
            columns=["measurement", "seconds", "ratio"],
            notes=(
                f"micro = {N_INC} increments; macro = best of "
                f"{DES_REPEATS} SR-over-WAN DES runs"
            ),
        )
        table.add_row("micro: bare += 1", round(bare_s, 5), 1.0)
        table.add_row(
            "micro: disabled inc()", round(null_s, 5),
            round(null_s / bare_s, 2),
        )
        table.add_row("macro: metrics on", round(on_s, 5), 1.0)
        table.add_row(
            "macro: metrics off", round(off_s, 5), round(off_s / on_s, 2),
        )
        return table, bare_s, null_s, on_s, off_s

    table, bare_s, null_s, on_s, off_s = run_once(benchmark, measure)
    show(table)
    # Disabled inc() is one method call and one add; allow interpreter dispatch
    # overhead vs the bare in-place add but nothing asymptotic.
    assert null_s < 10 * bare_s
    # The macro workload must not get *slower* with telemetry disabled
    # beyond noise -- disabled instruments never cost more than live ones.
    assert off_s < on_s * MACRO_SLACK
