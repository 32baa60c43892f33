"""Cross-commit byte-identity of the ``fabric`` and ``chaos`` CLI outputs.

Pins, per invocation, the exit status, stdout and stderr of ``repro`` and
the sha256 of every file it writes (``--json``, ``--metrics-json``,
``--trace-jsonl``) in ``cli_outputs.json``, with the run's output
directory written as ``<out>``.  A refactor of the CLI must leave every
entry untouched; the file is regenerated
(``PYTHONPATH=src python tests/golden/test_cli_outputs.py <commit>``) only
by a change that declares a new CLI output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).with_name("cli_outputs.json")

#: Each case writes its files under ``{out}``.
EXPORTS = ["--json", "{out}/result.json", "--metrics-json", "{out}/metrics.json"]
CASES = {
    "smoke": ["fabric", "--preset", "smoke", *EXPORTS],
    "smoke_slo": ["fabric", "--preset", "smoke", "--slo", *EXPORTS],
    "smoke_victim_gate_fails": [
        "fabric", "--preset", "smoke", "--min-victim-fraction", "1.0", *EXPORTS,
    ],
    "fairness": [
        "fabric", "--preset", "fairness", "--victims", "1",
        "--duration", "0.002", *EXPORTS,
    ],
    "chaos_wan_flap": ["fabric", "--chaos", "wan_flap", *EXPORTS],
    "chaos_static_survival_gate_fails": [
        "fabric", "--chaos", "tor_crash", "--no-health",
        "--min-survival", "0.99", *EXPORTS,
    ],
    "scale": [
        "fabric", "--preset", "scale", "--tenants", "20", "--duration",
        "0.002", "--offered-gbps", "50", *EXPORTS,
    ],
    "demo_chaos_recover": [
        "chaos", "--schedule", "plane-blackout", "--planes", "2", "--recover",
        "--messages", "4", "--trace-jsonl", "{out}/trace.jsonl",
        "--metrics-json", "{out}/metrics.json",
    ],
}


def run_case(name: str) -> dict:
    """Run one case in a fresh directory; what it printed and wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.format(out=tmp) for arg in CASES[name]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = main(argv)
        return {
            "exit": status,
            "stdout": stdout.getvalue().replace(tmp, "<out>"),
            "stderr": stderr.getvalue().replace(tmp, "<out>"),
            "files": {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(Path(tmp).iterdir())
            },
        }


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name):
    golden = json.loads(GOLDEN.read_text())["cases"][name]
    assert run_case(name) == golden


def test_every_case_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())["cases"]) == sorted(CASES)


if __name__ == "__main__":
    payload = {
        "note": (
            "exit status, stdout, stderr and sha256 of each written file per "
            "CLI invocation; regenerate only for a declared output change"
        ),
        "recorded_at": sys.argv[1] if len(sys.argv) > 1 else "unknown",
        "cases": {name: run_case(name) for name in sorted(CASES)},
    }
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
