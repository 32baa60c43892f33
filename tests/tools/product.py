"""Which ``src/repro`` lines no product path runs: the entry-point table,
run under :mod:`tests.tools.linecov`'s tracer.

    PYTHONPATH=src python tests/tools/product.py

A product path is what a user of this repository runs: every CLI
subcommand with each of its ``choices`` values, every named demo schedule
under every demo protocol, CI's command lines, the examples, every
``BENCHMARK.json`` workload through ``bench/measure.py`` at check scale
(untraced and traced), the ``bench/kernels.py`` kernels, and the claims
table's ``run()`` calls.  No claims row's ``check()`` runs: the
wall-clock ratio rows fail under a tracer, and this run records reach,
not claims.  The table is data below; ``tests/tools/test_product.py``
holds it to the parser, the schedule registries, the examples directory,
``BENCHMARK.json``, the kernels and the claims table without running it.

The report, ``productcov.txt`` in the working directory, has
``linecov.txt``'s format -- one summary line::

    productcov: <executable> executable lines, <unreached> unreached

then one ``<path>: <unreached> unreached: <line ranges>`` line per file
-- then a second summary line and one line per function or method no
entry called, with its executable body lines and its kind from
``product_kinds.txt`` (the kinds table beside this file), or
``UNSORTED`` where it has no row.  Rows naming a function an entry now
calls are printed as stale.  The run exits non-zero if an entry raises
or exits non-zero, and if the kinds table is not closed: a function
without a row, a stale row, or any ``api`` row (API nothing in the
product calls goes with its tests; a row of that kind only records the
decision until the change that deletes it).
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import tempfile
import threading
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
KINDS_FILE = Path(__file__).resolve().parent / "product_kinds.txt"
REPORT = Path("productcov.txt")
KINDS = ("refusal", "safety", "api")

#: One command line per ``build_parser()`` subcommand and ``choices``
#: value.  ``{out}`` is a scratch directory; ``explain`` and ``top`` read
#: the trace the first ``report`` line writes there.
CLI = (
    ("plan", "--size-mib", "1"),
    ("model", "--size-mib", "1", "--samples", "200"),
    ("campaign", "--trials", "20"),
    ("report", "--messages", "2", "--size-mib", "1", "--protocol", "sr",
     "--nack", "--trace", "{out}/report.json",
     "--trace-jsonl", "{out}/report.jsonl",
     "--metrics-json", "{out}/report-metrics.json",
     "--openmetrics", "{out}/report.prom"),
    ("report", "--messages", "2", "--size-mib", "1", "--protocol", "ec"),
    ("report", "--messages", "2", "--size-mib", "1", "--protocol", "adaptive"),
    ("report", "--messages", "2", "--size-mib", "1", "--protocol", "sampling"),
    ("report", "--messages", "2", "--size-mib", "1", "--cc", "none"),
    ("report", "--messages", "2", "--size-mib", "1", "--cc", "swift",
     "--buffer-kib", "64", "--ecn-kib", "16"),
    ("report", "--messages", "2", "--size-mib", "1", "--cc", "dcqcn",
     "--buffer-kib", "64", "--ecn-kib", "16"),
    ("chaos", "--list"),
    ("chaos", "--messages", "2", "--cc", "none"),
    ("chaos", "--messages", "2", "--cc", "swift"),
    ("chaos", "--messages", "2", "--cc", "dcqcn"),
    ("chaos", "--schedule", "plane-blackout", "--planes", "2",
     "--spread", "flow", "--messages", "2"),
    ("chaos", "--schedule", "plane-blackout", "--planes", "2",
     "--spread", "packet", "--messages", "2",
     "--trace-jsonl", "{out}/chaos.jsonl"),
    ("explain", "{out}/report.jsonl", "--msg", "0"),
    ("top", "{out}/report.jsonl"),
    ("fabric", "--preset", "smoke", "--cc", "none", "--lineage", "--slo"),
    ("fabric", "--preset", "smoke", "--cc", "swift", "--no-enforce",
     "--no-rogue", "--trace-jsonl", "{out}/fabric.jsonl"),
    ("fabric", "--preset", "smoke", "--cc", "dcqcn"),
    ("fabric", "--preset", "fairness", "--duration", "0.01"),
    ("fabric", "--chaos", "wan_flap", "--cc", "dcqcn",
     "--trace-jsonl", "{out}/fabric-chaos.jsonl"),
    ("fabric", "--preset", "scale", "--tenants", "50", "--duration", "0.005"),
    ("fabric", "--preset", "scale", "--tenants", "50", "--duration", "0.005",
     "--fast-path"),
    ("experiments", "fig03", "fig10", "fig11", "fig12", "fig13"),
)

#: Every named demo schedule, each run under every demo protocol with
#: ``DEMO_ARGS`` (``--planes 2`` as well for the plane-scoped ones).
DEMO_SCHEDULES = (
    "blackout", "data-blackout", "ack-blackout", "brownout", "delay-spike",
    "reorder-storm", "dup-burst", "corrupt", "dpa-stall", "dpa-crash",
    "plane-blackout", "chaos-mix",
)
PLANE_SCHEDULES = ("plane-blackout",)
DEMO_PROTOCOLS = ("sr", "ec", "adaptive", "sampling")
DEMO_ARGS = ("--messages", "2", "--drop", "0.01", "--recover")

#: CI's command lines (``.github/workflows/ci.yml``) at seed 0: the
#: recovery sweep, the fabric smoke and the fabric chaos jobs.
CI = (
    ("chaos", "--schedule", "plane-blackout", "--planes", "2", "--recover",
     "--messages", "8", "--seed", "0",
     "--metrics-json", "{out}/recovery-metrics/plane-blackout.json"),
    ("chaos", "--schedule", "brownout", "--recover", "--messages", "8",
     "--seed", "0", "--metrics-json", "{out}/recovery-metrics/brownout.json"),
    ("chaos", "--schedule", "dpa-crash", "--recover", "--messages", "8",
     "--seed", "0", "--metrics-json", "{out}/recovery-metrics/dpa-crash.json"),
    ("chaos", "--schedule", "ack-blackout", "--recover", "--messages", "8",
     "--seed", "0", "--metrics-json", "{out}/recovery-metrics/ack-blackout.json"),
    ("fabric", "--preset", "smoke", "--seed", "0", "--min-victim-fraction",
     "0.5", "--json", "{out}/fabric-reports/fabric_smoke_seed0.json"),
    ("fabric", "--chaos", "tor_crash", "--seed", "0", "--min-survival", "0.99",
     "--json", "{out}/fabric-reports/fabric_chaos_tor_crash_seed0.json"),
    ("fabric", "--chaos", "wan_flap", "--seed", "0", "--min-survival", "0.99",
     "--json", "{out}/fabric-reports/fabric_chaos_wan_flap_seed0.json"),
    ("fabric", "--chaos", "fabric_partition", "--seed", "0",
     "--json", "{out}/fabric-reports/fabric_chaos_fabric_partition_seed0.json"),
)

#: ``examples/*.py``, each run as ``__main__`` with no arguments.
EXAMPLES = (
    "adaptive_wan.py", "gradient_sync.py", "multi_dc_allreduce.py",
    "quickstart.py", "reliability_planner.py",
)

#: The ``BENCHMARK.json`` workloads, each measured untraced and traced.
WORKLOADS = ("wan_sr", "wan_ec", "incast_cc", "fabric_pkt", "fabric_fluid")

#: ``bench/kernels.run`` prefixes: none selects every kernel.
KERNEL_PREFIXES: tuple[str, ...] = ()


def demo_lines() -> list[tuple[str, ...]]:
    """``chaos`` over every demo schedule x protocol."""
    return [
        ("chaos", "--schedule", schedule, "--protocol", protocol, *DEMO_ARGS,
         *(("--planes", "2") if schedule in PLANE_SCHEDULES else ()))
        for schedule in DEMO_SCHEDULES
        for protocol in DEMO_PROTOCOLS
    ]


def entries(out: str) -> list[tuple[str, object]]:
    """``(name, thunk)`` for every entry point, in run order.  Call it with
    the tracer armed: it imports ``bench/`` and the claims table."""

    def cli(argv):
        return partial(_as_main, ["repro", *(arg.format(out=out) for arg in argv)],
                       runpy.run_module, "repro", alter_sys=True)

    def example(name):
        path = str(ROOT / "examples" / name)
        return partial(_as_main, [path], runpy.run_path, path)

    def workload(name, traced):
        def run():
            with Yardstick() as yard:
                measure(name, 0, CHECK_SCALE, traced=traced, yard=yard,
                        check=not traced)
        return run

    import kernels
    from measure import measure
    from run import CHECK_SCALE
    from tests.claims import CLAIMS
    from yardstick import Yardstick

    table = [(" ".join(argv), cli(argv)) for argv in (*CLI, *demo_lines(), *CI)]
    table += [(f"example {name}", example(name)) for name in EXAMPLES]
    table += [
        (f"bench {name}{' traced' if traced else ''}", workload(name, traced))
        for name in WORKLOADS for traced in (False, True)
    ]
    table.append(("bench kernels", partial(kernels.run, KERNEL_PREFIXES)))
    table += [(f"claim {row.id}", row.run) for row in CLAIMS]
    return table


def _as_main(argv: list[str], run, target: str, **kw) -> None:
    """Run ``target`` as ``__main__`` under ``argv``; a non-zero exit raises."""
    saved = sys.argv
    sys.argv = argv
    try:
        run(target, run_name="__main__", **kw)
    except SystemExit as exc:
        if exc.code:
            raise RuntimeError(f"exited {exc.code}") from None
    finally:
        sys.argv = saved


def read_kinds(path: Path = KINDS_FILE) -> dict[str, tuple[str, str]]:
    """``{"<path>::<qualname>": (kind, reason)}`` from the kinds table."""
    rows = {}
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        kind, name, reason = line.split(maxsplit=2)
        rows[name] = (kind, reason)
    return rows


def functions(path: Path):
    """``(qualname, node)`` for every function or method in ``path`` that is
    not nested in another function."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child))
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")

    walk(ast.parse(path.read_text()), "")
    return out


def never_called(hits: dict[str, set[int]], executable) -> list[tuple[str, int]]:
    """``("<path>::<qualname>", body lines)`` for each function no hit reached.

    A function counts as called when any executable line of its body ran;
    one whose body has no executable line (a stub) is not listed.
    """
    out = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        lines = executable(path)
        ran = hits.get(str(path), set())
        rel = path.relative_to(ROOT)
        for name, node in functions(path):
            start = node.body[0].lineno
            body = {n for n in lines if start <= n <= node.end_lineno}
            if isinstance(node.body[0], ast.Expr) and isinstance(
                getattr(node.body[0], "value", None), ast.Constant
            ):
                body -= set(range(start, node.body[0].end_lineno + 1))
            if body and not body & ran:
                out.append((f"{rel}::{name}", len(body)))
    return out


def main() -> int:
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from tests.tools import linecov  # installs the tracer

    sys.path.insert(0, str(ROOT / "bench"))
    failures = []
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as out:
        for name, run in entries(out):
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    run()
            except Exception as exc:
                failures.append(name)
                print(f"FAILED {name}: {type(exc).__name__}: {exc}", flush=True)
                continue
            print(f"{time.perf_counter() - t0:7.2f} s  {name}", flush=True)
    sys.settrace(None)
    threading.settrace(None)
    total, unreached, rows = linecov.report()
    kinds = read_kinds()
    missed = never_called(linecov._hits, linecov.executable_lines)
    names = {name for name, _ in missed}
    unsorted = [name for name in sorted(names) if name not in kinds]
    stale = [name for name in sorted(kinds) if name not in names]
    api = [name for name in sorted(kinds) if kinds[name][0] == "api"]
    by_kind = ", ".join(
        f"{sum(kinds[n][0] == kind for n in names if n in kinds)} {kind}"
        for kind in KINDS
    )
    summary = [
        f"productcov: {total} executable lines, {unreached} unreached",
        f"productcov: {len(missed)} functions never called "
        f"({sum(n for _, n in missed)} body lines): {by_kind}, "
        f"{len(unsorted)} unsorted; {len(stale)} stale kinds rows",
    ]
    calls = [
        f"{name}: {n} lines: {kinds.get(name, ('UNSORTED',))[0]}"
        for name, n in missed
    ]
    REPORT.write_text("\n".join([summary[0], *rows, summary[1], *calls]) + "\n")
    for line in summary:
        print(line)
    for name in unsorted:
        print(f"unsorted: {name}")
    for name in stale:
        print(f"stale (now called): {name}")
    for name in api:
        print(f"api (delete it): {name}")
    print(f"{time.perf_counter() - started:.0f} s; per file: {REPORT}")
    if failures:
        print(f"{len(failures)} entr{'y' if len(failures) == 1 else 'ies'} "
              f"failed: {', '.join(failures)}")
    return 1 if failures or unsorted or stale or api else 0


if __name__ == "__main__":
    raise SystemExit(main())
