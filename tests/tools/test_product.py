"""The product-reach entry table (``tests/tools/product.py``) and its kinds
table, held to what they name without running an entry."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.faults import NAMED_SCHEDULES, named_schedule
from repro.fabric import FABRIC_SCHEDULES
from repro.telemetry.demo import PROTOCOLS
from tests.claims import CLAIMS
from tests.tools import product

ROOT = Path(__file__).resolve().parents[2]
LINES = (*product.CLI, *product.demo_lines(), *product.CI)


def _subcommands():
    (action,) = [
        a for a in build_parser()._actions if a.dest == "command"
    ]
    return action.choices


def test_every_subcommand_has_a_line():
    assert {line[0] for line in LINES} == set(_subcommands())


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_every_choices_value_has_a_line(command):
    lines = [line for line in LINES if line[0] == command]
    for action in _subcommands()[command]._actions:
        if not action.choices or not action.option_strings:
            continue
        given = {
            line[i + 1]
            for line in lines
            for i, arg in enumerate(line[:-1])
            if arg in action.option_strings
        }
        assert given == set(action.choices), action.dest


def test_every_demo_schedule_runs_under_every_demo_protocol():
    assert set(product.DEMO_SCHEDULES) == set(NAMED_SCHEDULES)
    assert set(product.DEMO_PROTOCOLS) == set(PROTOCOLS)
    plane_scoped = {
        name for name in NAMED_SCHEDULES
        if any(w.plane is not None for w in named_schedule(name, rtt=1e-3).windows)
    }
    assert set(product.PLANE_SCHEDULES) == plane_scoped


def test_every_fabric_schedule_has_a_line():
    chaos = {
        line[i + 1] for line in LINES for i, arg in enumerate(line[:-1])
        if line[0] == "fabric" and arg == "--chaos"
    }
    assert chaos == set(FABRIC_SCHEDULES)


def test_every_example_and_workload_is_an_entry():
    assert sorted(product.EXAMPLES) == sorted(p.name for p in (ROOT / "examples").glob("*.py"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(product.WORKLOADS) == sorted(w["name"] for w in spec["workloads"])


def test_every_kernel_and_the_whole_claims_table_are_entries(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import kernels

    names = [*kernels.KERNELS, *(n for group in kernels.GROUPS.values() for n in group)]
    prefixes = product.KERNEL_PREFIXES
    assert all(not prefixes or name.startswith(prefixes) for name in names)
    entries = [name for name, _ in product.entries(str(tmp_path))]
    assert "bench kernels" in entries
    assert [n for n in entries if n.startswith("claim ")] == [
        f"claim {row.id}" for row in CLAIMS
    ]


def test_the_kinds_table_names_functions_that_exist():
    rows = product.read_kinds()
    defined = {
        f"{path.relative_to(ROOT)}::{name}"
        for path in (ROOT / "src" / "repro").rglob("*.py")
        for name, _ in product.functions(path)
    }
    assert sorted(set(rows) - defined) == []
    for name, (kind, reason) in rows.items():
        assert kind in product.KINDS, name
        assert reason.strip(), name


def test_the_kinds_table_keeps_only_refusals_and_safety_code():
    """API nothing in the product calls is deleted with its tests, not
    filed: ``product.py`` fails on an ``api`` row, and so does this."""
    rows = product.read_kinds()
    assert sorted(n for n, (kind, _) in rows.items() if kind == "api") == []
    assert {kind for kind, _ in rows.values()} <= {"refusal", "safety"}
