"""Benchmark driver: five workloads, end-to-end metrics and a layer budget.

Three ways to run, all from the repository root::

    python3 bench/run.py                      # full run -> bench/out/run.json
    python3 bench/run.py --only wan_ec        # one workload (or: --only kernels)
    python3 bench/run.py --check              # < 60 s miniature, asserts outputs
    python3 bench/run.py --workload wan_sr --seed 3 --seconds 12 --trace 0

The last form is the one ``BENCHMARK.json`` names: it measures one
workload for about ``--seconds`` and prints one JSON object as the last
line of standard output -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

This process only orchestrates: every round runs in a fresh child
(``child.py``), one at a time, and the kernels in a child of their own
(``kernels.py``).  Names, units and bounds come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

#: Rounds of a full run, and the fewest a ``--seconds`` run settles for.
DEFAULT_ROUNDS = 5
MIN_ROUNDS = 3
#: ``--check`` runs every workload at this share of its timed size.
CHECK_SCALE = 0.04

#: End-to-end metrics a round reports under ``simulated``: they repeat
#: exactly for a seed.  The rest are host measurements, one per round.
SIMULATED = (
    "sim_goodput_gbps", "sim_msg_p50_s", "sim_msg_tail_s", "delivered_share",
)


@contextlib.contextmanager
def child(script: str, args: list[str]):
    """A child process that is dead and reaped when the block ends."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / script), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        yield proc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def last_json(proc: subprocess.Popen) -> dict:
    """Wait for a child and parse the JSON object on its last line."""
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(proc.args[1:])} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_round(workload: str, seed: int, *, scale: float = 1.0,
              traced: bool = False, check: bool = False) -> dict:
    """One round in a fresh child; adds ``setup_s`` measured on our clock."""
    spawned = time.perf_counter()
    with child("child.py", [
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--traced", str(int(traced)), "--check", str(int(check)),
    ]) as proc:
        line = proc.stdout.readline()
        ready_at = time.perf_counter()
        if not line.startswith("READY "):
            proc.communicate()
            raise RuntimeError(f"{workload}: child exited before it was ready")
        ready = json.loads(line[len("READY "):])
        result = last_json(proc)
    raw = ready_at - spawned - ready["spent"]
    result["setup_raw_s"] = raw
    result["setup_s"] = raw * ready["speed"]
    return result


def run_kernels(prefixes: tuple[str, ...] = ()) -> dict:
    with child("kernels.py", list(prefixes)) as proc:
        return last_json(proc)


def end_to_end(timed: list[dict], spec: dict) -> dict:
    """Median and quartiles of every end-to-end metric over timed rounds."""
    table = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [
            r["simulated"][name] if name in SIMULATED else r[name] for r in timed
        ]
        table[name] = {**layers.summary(values), "unit": metric["unit"]}
    return table


def run_workload(name: str, seed: int, spec: dict, *, rounds: int | None = None,
                 seconds: float | None = None, traced: bool = True) -> dict:
    """Timed rounds (a count, or for about ``seconds``), then a traced one."""
    started = time.perf_counter()
    timed: list[dict] = []
    while True:
        timed.append(run_round(name, seed))
        if rounds is not None:
            if len(timed) >= rounds:
                break
        elif len(timed) >= MIN_ROUNDS and time.perf_counter() - started >= seconds:
            break
    first = timed[0]
    result = {
        "seed": seed,
        "loop": first["loop"],
        "rounds": len(timed),
        "samples": first["simulated"]["samples"],
        "tail_pct": first["simulated"]["tail_pct"],
        "attempted": sum(r["attempted"] for r in timed),
        "failed": sum(r["failed"] for r in timed),
        "end_to_end": end_to_end(timed, spec),
        "raw": {
            key: layers.summary([r[key] for r in timed])
            for key in ("wall_raw_s", "setup_raw_s", "host_speed")
        },
        "sim_digest": first["sim_digest"],
    }
    everything = timed
    if traced:
        trace = run_round(name, seed, traced=True)
        everything = timed + [trace]
        per_layer = trace["per_layer"]
        per_layer["sim.profile_overhead_ratio"] = (
            trace["wall_s"] / result["end_to_end"]["wall_s"]["median"]
        )
        result["per_layer"] = per_layer
    # Same seed, same inputs: every round, traced or not, must agree;
    # a failed message is a lost or byte-mismatched one.
    result["correct"] = all(
        r["sim_digest"] == first["sim_digest"] and r["failed"] == 0
        for r in everything
    )
    return result


# -- reporting -------------------------------------------------------------------


def print_workload(name: str, result: dict, spec: dict) -> None:
    print(f"\n== {name}  {result['loop']} loop  seed {result['seed']}  "
          f"{result['rounds']} timed rounds  "
          f"{result['samples']} messages  tail p{result['tail_pct']:g}  "
          f"digest {result['sim_digest'][:16]}  "
          f"{'correct' if result['correct'] else 'INCORRECT'}")
    for metric in spec["end_to_end"]:
        stat = result["end_to_end"][metric["name"]]
        print(f"  {metric['name']:<22} {stat['median']:>16.6g} {stat['unit']:<8} "
              f"iqr {layers.spread(stat) * 100:5.2f}% of median, n={stat['n']}")
    raw = result["raw"]
    print(f"  (raw wall {raw['wall_raw_s']['median']:.3f} s, raw set-up "
          f"{raw['setup_raw_s']['median']:.3f} s, host speed "
          f"{raw['host_speed']['median']:.2f} of reference)")


def print_per_layer(values: dict, spec: dict) -> None:
    for metric in spec["per_layer"]:
        if metric["name"] in values:
            print(f"  {metric['name']:<34} {values[metric['name']]:>16.6g} "
                  f"{metric['unit']}")


def check_names(values: dict, metrics: list[dict], what: str) -> None:
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{what}: no value for {missing}")


# -- the three modes ---------------------------------------------------------------


def driver_mode(args, spec: dict) -> int:
    """The contract of BENCHMARK.json: one workload, one JSON line."""
    if args.trace:
        # One timed round beside the traced one, for the profiler's overhead.
        result = run_workload(args.workload, args.seed, spec, rounds=1)
        values = {**result["per_layer"], **run_kernels()}
        check_names(values, spec["per_layer"], "per-layer metrics")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print_workload(args.workload, result, spec)
        print_per_layer(values, spec)
    else:
        result = run_workload(
            args.workload, args.seed, spec, seconds=args.seconds, traced=False
        )
        values = {k: v["median"] for k, v in result["end_to_end"].items()}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        print_workload(args.workload, result, spec)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if result["correct"] else 1


def full_mode(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.only is not None and args.only != "kernels":
        if args.only not in names:
            raise SystemExit(f"--only: unknown workload {args.only!r}")
        names = [args.only]
    elif args.only == "kernels":
        names = []
    run = {
        "meta": {
            "seed": args.seed,
            "rounds": args.rounds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "machine": platform.platform(),
        },
        "workloads": {},
    }
    for name in names:
        result = run_workload(name, args.seed, spec, rounds=args.rounds)
        print_workload(name, result, spec)
        print_per_layer(result["per_layer"], spec)
        run["workloads"][name] = result
    if args.only in (None, "kernels"):
        run["kernels"] = run_kernels()
        print("\n== kernels")
        print_per_layer(run["kernels"], spec)
    if args.only is None:
        for name in names:
            check_names(
                {**run["workloads"][name]["per_layer"], **run["kernels"]},
                spec["per_layer"], name,
            )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(run, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {out}")
    wrong = [n for n in names if not run["workloads"][n]["correct"]]
    if wrong:
        print(f"messages failed or sim_digest differs between rounds on: {wrong}",
              file=sys.stderr)
    return 1 if wrong else 0


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"check failed: {message}")


def check_mode(args, spec: dict) -> int:
    """Miniature of all five workloads that asserts outputs are correct."""
    started = time.perf_counter()
    for workload in spec["workloads"]:
        name = workload["name"]
        # check=True also compares the hand-assembled fabric runs with
        # scale_scenario's digest, inside the child.
        timed = run_round(name, args.seed, scale=CHECK_SCALE, check=True)
        trace = run_round(name, args.seed, scale=CHECK_SCALE, traced=True)
        other = run_round(name, args.seed + 1, scale=CHECK_SCALE)
        for r in (timed, trace, other):
            # failed counts byte mismatches, and the child has already
            # refused a round where completed + failed != attempted.
            require(r["failed"] == 0, f"{name}: {r['failed']} messages failed")
            require(r["simulated"]["delivered_share"] == 1.0, f"{name}: share < 1")
        require(timed["sim_digest"] == trace["sim_digest"],
                f"{name}: same seed, different sim_digest")
        # incast_cc draws nothing from its seed; the others must differ.
        require((timed["sim_digest"] != other["sim_digest"]) == timed["seeded"],
                f"{name}: sim_digest of another seed is "
                f"{'the same' if timed['seeded'] else 'different'}")
        layer = trace["per_layer"]
        budget = sum(layer[f"{lay}.busy_s"] for lay in layers.LAYERS)
        budget += layer["sim.engine_overhead_s"]
        budget += sum(
            layer[stage] for stage in (
                "workloads.generate_s", "fabric.build_s", "fabric.submit_s",
                "sdr.build_s", "telemetry.digest_s",
            )
        )
        wall = layer["sim.traced_wall_s"]
        require(abs(budget - wall) <= 0.01 * wall,
                f"{name}: layer budget {budget:.4f} s != traced wall {wall:.4f} s")
        print(f"ok {name:<13} digest {timed['sim_digest'][:16]}  "
              f"budget {budget / wall * 100:.2f}% of traced wall")
    print(f"check passed in {time.perf_counter() - started:.1f} s")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", help="measure one workload and print one JSON line")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--out", default=str(BENCH / "out" / "run.json"))
    parser.add_argument("--only", help="one workload name, or 'kernels'")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py: no src/repro beside bench/: nothing to measure",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.check:
        return check_mode(args, spec)
    if args.workload is not None:
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            print(f"unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        return driver_mode(args, spec)
    return full_mode(args, spec)


if __name__ == "__main__":
    sys.exit(main())
