"""A simulation imports what it executes (``docs/simulation.md``, "What a
fresh process pays").

Every benchmark round is a fresh interpreter that compiles each ``repro``
module it imports before its first event.  Two guards hold the rule:
SciPy loads with the model that calls it, not with a simulation; and a
run shaped like each benchmark workload loads none of the subsystems it
does not execute, which load on first use instead (lazy package names and
the built-in codec and scheme names).  Each check runs in a fresh
interpreter, because this process already holds pytest, hypothesis and
whatever earlier tests loaded.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SCIPY_SCRIPT = """
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

#: Subsystems that none of the five benchmark workloads executes.
UNEXECUTED = (
    "repro.telemetry.lineage", "repro.telemetry.slo",
    "repro.telemetry.timeseries", "repro.telemetry.openmetrics",
    "repro.fabric.chaos", "repro.fabric.health",
    "repro.faults", "repro.faults.schedule", "repro.faults.channel",
    "repro.faults.inject",
    "repro.recovery.health",
    "repro.models", "repro.models.sr_model", "repro.models.ec_model",
    "repro.models.params", "repro.models.decode_prob", "repro.models.stats",
    "repro.reliability.adaptive", "repro.reliability.gbn",
    "repro.reliability.sampling",
    "repro.ec.rs2d", "repro.ec.xor_code", "repro.ec.sampling",
    "repro.net.multipath",
    "repro.experiments", "repro.experiments.report",
)
#: ``repro`` modules a benchmark child loads (80 before the subsystems
#: above loaded on first use).
MAX_REPRO_MODULES = 54

WORKLOAD_SCRIPT = """
import sys

from repro.cc.incast import run_incast
from repro.common import ChannelConfig, KiB, MiB, SdrConfig
from repro.fabric import ScaleConfig, scale_scenario
from repro.reliability import EcConfig, SrConfig
from repro.stack import build_pair, endpoints

# The two-node SR and EC writes: payload-carrying, over a lossy link.
for scheme, config in (("sr", SrConfig()), ("ec", EcConfig(k=32, m=8))):
    st = build_pair(
        ChannelConfig(distance_km=100.0, mtu_bytes=4 * KiB, drop_probability=0.01),
        SdrConfig(chunk_bytes=16 * KiB, channels=8, inflight_messages=64), seed=1,
    )
    sender, receiver = endpoints(scheme, st, config)
    buf = bytearray(MiB)
    rx = receiver.post_receive(st.ctx_b.mr_reg(MiB, data=buf), MiB)
    payload = bytes(range(256)) * (MiB // 256)
    st.sim.run(sender.write(MiB, payload).done)
    assert rx.done.ok and buf == payload, scheme
    st.sim.run()

assert run_incast(senders=2, cc="swift", messages_per_sender=2).messages == 4
for fluid in (False, True):
    result = scale_scenario(ScaleConfig(
        tenants=8, duration=0.002, offered_load_bps=20e9, fluid=fluid,
    ))
    assert result.completed > 0, fluid

loaded = sorted(m for m in sys.modules if m.split(".")[0] == "repro")
print(" ".join(loaded))
"""


def _fresh(script: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def _bench_imports() -> str:
    """Every ``from repro... import ...`` of the benchmark's measuring child."""
    lines = []
    for name in ("workloads.py", "measure.py"):
        tree = ast.parse((ROOT / "bench" / name).read_text())
        lines += [
            ast.unparse(node) for node in tree.body
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "repro"
        ]
    assert lines, "bench/ imports nothing from repro"
    return "\n".join(lines)


def test_simulating_loads_no_scipy_and_the_model_loads_it_on_first_call():
    assert _fresh(SCIPY_SCRIPT) == "ok"


def test_a_benchmark_run_loads_only_what_it_executes():
    loaded = _fresh(_bench_imports() + WORKLOAD_SCRIPT).split()
    assert not sorted(set(UNEXECUTED) & set(loaded))
    assert not [m for m in loaded if m.split(".")[0] in ("scipy", "hypothesis")]
    assert len(loaded) <= MAX_REPRO_MODULES, loaded


LAZY_SCRIPT = """
import importlib
import sys

from repro.common import ChannelConfig, ConfigError
from repro.ec import get_codec
from repro.stack import build_pair, endpoints

for name, module in (("xor", "xor_code"), ("rs2d", "rs2d")):
    assert f"repro.ec.{module}" not in sys.modules, name
    assert type(get_codec(name, 4, 4)).__module__ == f"repro.ec.{module}", name
pair = build_pair(ChannelConfig(distance_km=10.0))
for name in ("gbn", "sampling", "adaptive"):
    assert f"repro.reliability.{name}" not in sys.modules, name
    sender, receiver = endpoints(name, pair)
    assert type(sender).__module__ == f"repro.reliability.{name}", name
try:
    get_codec("nope", 4, 2)
except ConfigError as error:
    assert "available: ['mds', 'rs', 'rs2d', 'xor']" in str(error), error
else:
    raise AssertionError("an unknown codec was built")

for package in (
    "repro.telemetry", "repro.fabric", "repro.reliability", "repro.ec",
    "repro.recovery", "repro.net",
):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        namespace = {}
        exec(f"from {package} import {name}", namespace)
        assert namespace[name] is getattr(module, name), (package, name)
        assert name in listed, (package, name)
    try:
        getattr(module, "no_such_name")
    except AttributeError:
        pass
    else:
        raise AssertionError(package)

from repro.collectives.des_ring import PROTOCOLS as RING
from repro.telemetry.demo import PROTOCOLS as DEMO

assert DEMO == ("sr", "ec", "adaptive", "sampling"), DEMO
assert RING == ("sr", "sr_nack", "ec", "gbn"), RING
print("ok")
"""


def test_lazy_names_and_builtin_registry_names_resolve_on_first_use():
    assert _fresh(LAZY_SCRIPT) == "ok"
