"""A simulation imports what it executes: SciPy loads with the model, not before.

``scipy.stats`` is ~0.5 s and ~65 MiB of a fresh process, and one line in
the package calls it (``p_decode_mds``, App. B's binomial CDF).  No SR /
EC run, golden replay or benchmark workload reaches that line, so none of
them may pay for it: ``setup_s`` and ``peak_rss_mib`` of every benchmark
workload are mostly this.  Checked in one fresh interpreter, because this
process already holds pytest, hypothesis and whatever earlier tests loaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

import repro, repro.stack, repro.cli, repro.fabric, repro.cc.incast
import repro.reliability, repro.sdr, repro.experiments
from repro.common.units import MiB
from repro.telemetry.demo import run_demo

for protocol in ("sr", "ec"):
    result = run_demo(protocol=protocol, messages=2, message_bytes=1 * MiB)
    assert result.failed_writes == 0, protocol

banned = ("scipy", "matplotlib", "hypothesis", "pytest")
loaded = sorted(m for m in sys.modules if m.split(".")[0] in banned)
assert not loaded, f"a simulation run imported {loaded[:5]}"

from repro.models import p_decode_mds

assert 0.0 < p_decode_mds(1e-3, 32, 8) <= 1.0
assert "scipy.stats" in sys.modules, "the lazy import was never exercised"
print("ok")
"""


def test_simulating_loads_no_scipy_and_the_model_loads_it_on_first_call():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
