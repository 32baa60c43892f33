"""Tests of the benchmark's own arithmetic and of ``BENCHMARK.json``.

Run explicitly (tier-1's ``testpaths`` is ``tests/``)::

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import layers  # noqa: E402
from measure import measure  # noqa: E402
from yardstick import NOMINAL_S, Yardstick  # noqa: E402

from repro.sim import Simulator  # noqa: E402
from repro.sim.profile import SimProfiler  # noqa: E402
from repro.telemetry import MetricsRegistry, Telemetry  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MOVES = json.loads((BENCH / "moves.json").read_text())


# -- category -> layer roll-up -----------------------------------------------------


@pytest.mark.parametrize("category, layer", [
    ("repro.fabric.service:FabricService._on_ack", "fabric"),
    ("repro.sim.fluid:FluidInjector._advance", "sim"),
    ("repro.reliability.sr:SrSender._timer_loop", "reliability"),
    ("repro.telemetry.metrics:Counter.inc", "telemetry"),
    ("repro.recovery.health:PlaneRecovery._tick_open", "other"),
    ("repro.common.bitmap:Bitmap.set", "other"),
    ("workloads:_two_node", "other"),
    ("builtins:method", "other"),
])
def test_layer_of(category, layer):
    assert layers.layer_of(category) == layer


def test_rollup_of_wrapped_and_generator_categories():
    profiler = SimProfiler()
    sim = Simulator(telemetry=Telemetry(profiler=profiler))
    counter = MetricsRegistry().counter("x")
    # call_at wraps its target in a trampoline carrying __wrapped__: the
    # dispatch must be charged to the target's layer, not to sim.
    sim.call_at(1e-6, counter.inc)

    def ticker():  # a generator defined outside repro: the catch-all row
        for _ in range(3):
            yield sim.timeout(1e-6)

    sim.process(ticker())
    sim.run()
    report = profiler.report()
    budget = layers.rollup(report["categories"])
    assert set(budget) == set(layers.LAYERS)
    assert budget["telemetry"]["dispatches"] == 1
    assert budget["other"]["dispatches"] == 4  # bootstrap + three timeouts
    assert budget["sim"]["dispatches"] == 0
    assert sum(row["dispatches"] for row in budget.values()) == report["events"]
    busy = sum(row["busy_s"] for row in budget.values())
    assert busy == pytest.approx(report["handler_seconds"])
    # The residual row: whatever the wall holds beyond handler time.
    assert report["engine_overhead_seconds"] == pytest.approx(
        report["wall_seconds"] - busy
    )


# -- tails, medians, quartiles -------------------------------------------------------


@pytest.mark.parametrize("samples, pct", [
    (12, 90.0), (99, 90.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (1024, 99.0), (9999, 99.0),
    (10000, 99.9), (23000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(samples, pct):
    assert layers.tail_percentile(samples) == pct


def test_percentile_is_nearest_rank():
    ordered = [float(i) for i in range(1, 101)]
    assert layers.percentile(ordered, 50.0) == 50.0
    assert layers.percentile(ordered, 90.0) == 90.0
    assert layers.percentile(ordered, 99.9) == 100.0
    assert layers.percentile([7.0], 90.0) == 7.0


def test_summary_matches_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    stat = layers.summary(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (stat["median"], stat["q1"], stat["q3"], stat["n"]) == (3.5, q1, q3, 6)
    assert layers.spread(stat) == pytest.approx((q3 - q1) / 3.5)
    single = layers.summary([2.0])
    assert single["q1"] == single["q3"] == 2.0 and layers.spread(single) == 0.0


def test_yardstick_speed_is_a_mean_of_speeds():
    yard = Yardstick()
    yard.slices = [NOMINAL_S, NOMINAL_S * 2]
    assert yard.speed == pytest.approx(0.75)


def test_armed_yardstick_samples_on_a_timer_and_its_clock_skips_slices():
    with Yardstick() as yard:
        start, began = yard.clock(), time.perf_counter()
        while time.perf_counter() - began < 0.35:
            sum(range(1000))
        net, gross = yard.clock() - start, time.perf_counter() - began
    taken = len(yard.slices)
    assert taken >= 3  # one on entry, then one every 0.1 s
    assert net == pytest.approx(gross - (yard.spent - yard.slices[0]), abs=5e-3)
    time.sleep(0.15)
    assert len(yard.slices) == taken  # disarmed when the block ended


# -- compare.py verdicts -----------------------------------------------------------


def _stat(median, iqr=0.0):
    return {"median": median, "q1": median - iqr / 2, "q3": median + iqr / 2, "n": 5}


@pytest.mark.parametrize("a, b, better, word", [
    (_stat(10.0), _stat(10.5), "lower", "ok"),
    (_stat(10.0), _stat(11.5), "lower", "worse"),
    (_stat(10.0), _stat(8.0), "lower", "ok"),
    (_stat(10.0), _stat(8.0), "higher", "worse"),
    (_stat(10.0, 3.0), _stat(10.2), "lower", "unresolved"),
    (_stat(10.0), _stat(10.2, 3.0), "lower", "unresolved"),
    (_stat(10.0, 3.0), _stat(12.0), "lower", "worse"),
])
def test_compare_verdicts(a, b, better, word):
    assert compare.verdict(a, b, better=better, bound=0.10)[1] == word


def test_compare_exit_status_and_rows():
    def run(wall):
        e2e = {m["name"]: _stat(1.0) for m in SPEC["end_to_end"]}
        e2e["wall_s"] = _stat(wall)
        one = {"end_to_end": e2e, "sim_digest": "d" * 64, "seed": 0}
        return {"workloads": {w["name"]: one for w in SPEC["workloads"]}}

    lines, any_worse = compare.compare(run(1.0), run(1.0), SPEC)
    assert not any_worse
    rows = len(SPEC["workloads"]) * (len(SPEC["end_to_end"]) + 1)
    assert len(lines) == rows + 2  # header and footnote
    assert compare.compare(run(1.0), run(2.0), SPEC)[1]


# -- BENCHMARK.json and moves.json ---------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = (
        [w["name"] for w in SPEC["workloads"]]
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_benchmark_json_names_what_the_code_produces():
    from kernels import GROUPS, KERNELS
    from measure import FABRIC_COUNTS, INSTANCE_COUNTS, STAGES
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    produced = set(KERNELS) | {n for names in GROUPS.values() for n in names}
    produced |= set(INSTANCE_COUNTS) | set(FABRIC_COUNTS) | set(STAGES)
    produced |= {f"{lay}.{k}" for lay in layers.LAYERS for k in ("busy_s", "dispatches")}
    assert produced <= per_layer
    # The rest are derived in measure.per_layer and run.run_workload.
    assert per_layer - produced == {
        "ec.codec_s", "ec.encode_calls", "ec.decode_calls",
        "sim.engine_overhead_s", "sim.traced_wall_s", "sim.host_speed",
        "sim.dispatches_total", "sim.us_per_dispatch", "sim.sim_seconds",
        "sim.wall_per_sim_s", "sim.events_per_sim_s", "sim.dispatches_per_packet",
        "sim.profile_overhead_ratio", "net.goodput_ratio",
        "reliability.ctrl_bytes",
    }


def test_moves_point_at_existing_metrics_and_workloads():
    workloads = {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for entry in MOVES:
        assert set(entry["layer_metrics"]) <= per_layer, entry
        assert set(entry["should_move"]) <= end_to_end, entry
        assert set(entry["on"]) <= workloads and set(entry["not_on"]) <= workloads
        assert not set(entry["on"]) & set(entry["not_on"])


# -- one miniature round, in process -------------------------------------------------


def test_wan_ec_round_is_deterministic_and_budget_sums_to_wall():
    with Yardstick() as yard:
        timed = measure("wan_ec", 3, 0.03, traced=False, yard=yard)
        trace = measure("wan_ec", 3, 0.03, traced=True, yard=yard)
        other = measure("wan_ec", 4, 0.03, traced=False, yard=yard)
    assert timed["failed"] == 0 and timed["simulated"]["delivered_share"] == 1.0
    # Same seed: identical digest, with or without the wrapper codec armed.
    assert timed["sim_digest"] == trace["sim_digest"] != other["sim_digest"]
    layer = trace["per_layer"]
    assert layer["ec.codec_s"] > 0 and layer["ec.encode_calls"] > 0
    assert layer["fabric.busy_s"] == 0 and layer["reliability.busy_s"] > 0
    budget = sum(layer[f"{lay}.busy_s"] for lay in layers.LAYERS)
    assert budget + layer["sim.engine_overhead_s"] == pytest.approx(layer["sim.run_s"])
    stages = sum(
        layer[s] for s in (
            "workloads.generate_s", "sdr.build_s", "sim.run_s", "telemetry.digest_s",
        )
    )
    assert stages == pytest.approx(layer["sim.traced_wall_s"], rel=0.02)
