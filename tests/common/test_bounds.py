"""Every option bound, at both edges, and every check that spans fields.

A bounded field declares its range where it is declared
(``field(metadata=bound(...))``, :class:`repro.common.config.Bound`) and
:func:`~repro.common.config.check_bounds` enforces it.  ``TABLES`` pins
each class's rows as they read in an error message, so a bound that is
dropped or moved fails here; each row is then driven from the live
:class:`Bound` at its edges:

* the first value outside the range raises :class:`ConfigError` with the
  bound's own message, naming the field;
* the nearest value inside constructs, unless a check that spans fields
  rejects it at the defaults, in which case ``CROSS_AT_EDGE`` names the
  message that must be raised instead;
* ``None`` constructs exactly when the bound is ``optional``.

Values are built from the table at run time, so this file sets no option
by keyword.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from repro.collectives.ring_allreduce import RingAllreduce
from repro.common.config import Bound, ChannelConfig, DpaConfig, SdrConfig
from repro.common.errors import ConfigError
from repro.common.units import GiB, KiB
from repro.fabric.chaos import ChaosConfig
from repro.fabric.scenarios import FairnessConfig, ScaleConfig
from repro.fabric.service import FabricServiceConfig, TenantSpec
from repro.fabric.topology import FabricNode
from repro.faults.schedule import FaultSchedule, FaultWindow
from repro.models.params import ModelParams
from repro.recovery.health import BreakerConfig
from repro.reliability.ec import EcConfig
from repro.reliability.sampling import SamplingConfig
from repro.reliability.sr import SrConfig
from repro.sdr.imm import ImmLayout
from repro.sim.engine import SimConfig
from repro.telemetry.slo import BurnPolicy, SloConfig, SloSpec
from repro.workloads.openloop import OpenLoopConfig, Workload

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Each in-scope class's range table, as ``check_bounds`` renders it.
TABLES: dict[type, dict[str, str]] = {
    ChannelConfig: {
        "bandwidth_bps": "> 0",
        "distance_km": ">= 0",
        "mtu_bytes": "> 0",
        "drop_probability": "in [0, 1)",
        "jitter_fraction": ">= 0",
        "duplicate_probability": "in [0, 1)",
        "buffer_bytes": ">= 0",
        "ecn_threshold_bytes": ">= 0",
    },
    SdrConfig: {
        "chunk_bytes": "> 0",
        "max_message_bytes": "> 0",
        "mtu_bytes": "> 0",
        "msg_id_bits": "> 0",
        "offset_bits": "> 0",
        "user_imm_bits": ">= 0",
        "generations": ">= 1",
        "channels": ">= 1",
        "inflight_messages": "> 0",
    },
    DpaConfig: {
        "worker_threads": "in (0, 256]",
        "per_cqe_seconds": "> 0",
        "pcie_update_seconds": ">= 0",
    },
    SrConfig: {
        "rto_rtts": "> 0",
        "ack_window_bytes": "> 0 or None",
        "max_chunk_retransmits": "> 0",
        "min_rto_rtts": "in (0, 64.0]",
        "max_message_retransmits": "> 0 or None",
        "serve_deadline_rtts": "> 0 or None",
        "max_resumptions": ">= 0",
    },
    EcConfig: {
        "k": "> 0",
        "m": "> 0",
        "beta_rtts": ">= 0",
        "encode_bps": "> 0 or None",
        "decode_bps": "> 0 or None",
        "global_timeout_rtts": "> 0",
        "serve_deadline_rtts": "> 0 or None",
        "max_resumptions": ">= 0",
    },
    SamplingConfig: {
        "sample_interval_rtts": "> 0",
        "repair_holdoff_rtts": ">= 0",
        "idle_timeout_rtts": "> 0",
        "max_idle_timeouts": "> 0",
        "max_message_retransmits": "> 0 or None",
        "serve_deadline_rtts": "> 0 or None",
        "max_resumptions": ">= 0",
    },
    BreakerConfig: {
        "min_samples": ">= 1",
        "open_rtts": "> 0",
        "backoff_factor": ">= 1",
        "backoff_cap": ">= 0",
        "probe_packets": ">= 1",
        "probe_successes": ">= 1",
    },
    FabricServiceConfig: {
        "cc": "one of ['dcqcn', 'none', 'swift']",
        "qp_pool_per_pair": ">= 1",
        "max_flows_per_qp": ">= 1",
        "max_attempts": ">= 1",
        "partition_deadline": "> 0",
    },
    TenantSpec: {
        "name": "> ''",
        "quota_bps": "> 0 or None",
        "burst_bytes": "> 0",
    },
    FabricNode: {
        "name": "> ''",
        "kind": "one of ['host', 'tor', 'wan']",
    },
    FairnessConfig: {"victims": ">= 1", "duration": "> 0"},
    ScaleConfig: {"tenants": ">= 1", "tors": ">= 1", "hosts_per_tor": ">= 1"},
    ChaosConfig: {
        "schedule": "one of ['fabric_partition', 'tor_crash', 'wan_flap'] or None",
        "hosts_per_tor": ">= 1",
    },
    FaultWindow: {
        "kind": (
            "one of ['blackout', 'brownout', 'corrupt', 'delay_spike', "
            "'dpa_crash', 'dpa_stall', 'duplicate', 'edge_down', 'node_crash', "
            "'reorder']"
        ),
        "start": ">= 0",
        "selector": "one of ['all', 'control', 'data']",
        "drop_probability": "in [0, 1]",
        "delay_seconds": ">= 0",
        "delay_jitter": ">= 0",
        "duplicate_probability": "in [0, 1]",
        "corrupt_probability": "in [0, 1]",
        "worker": ">= 0",
        "plane": ">= 0 or None",
    },
    FaultSchedule: {},
    OpenLoopConfig: {
        "tenants": ">= 1",
        "duration": "> 0",
        "offered_load_bps": "> 0",
        "size_dist": "one of ['fixed', 'lognormal', 'pareto']",
        "mean_message_bytes": "> 0",
        "rate_skew": ">= 0",
        "min_message_bytes": "> 0",
    },
    Workload: {},
    SloSpec: {
        "tenant": "> ''",
        "quota_bps": "> 0 or None",
        "goodput_fraction": "in (0, 1] or None",
        "delivery_ratio": "in (0, 1] or None",
        "max_retx_overhead": "in (0, 1] or None",
        "error_budget": "in (0, 1]",
    },
    BurnPolicy: {"short_windows": ">= 1", "threshold": "> 0"},
    SloConfig: {"window": "> 0 or None"},
    ModelParams: {
        "bandwidth_bps": "> 0",
        "rtt": ">= 0",
        "chunk_bytes": "> 0",
        "drop_probability": "in [0, 1)",
        "rto_rtts": "> 0",
        "beta_rtts": ">= 0",
    },
    ImmLayout: {"msg_id_bits": "> 0", "offset_bits": "> 0", "user_imm_bits": ">= 0"},
    RingAllreduce: {"n_datacenters": ">= 2", "buffer_bytes": "> 0"},
    SimConfig: {},
}

#: Positional values for the fields a class requires, in field order.
REQUIRED: dict[type, tuple] = {
    TenantSpec: ("t",),
    FabricNode: ("n", "host"),
    FaultWindow: ("blackout", 0.0),
    OpenLoopConfig: (1, 1.0, 1e9),
    SloSpec: ("t",),
    RingAllreduce: (2, 1),
}

#: ``(class, field, value inside the bound)`` -> the message of the check
#: spanning fields that rejects it with every other field at its default.
CROSS_AT_EDGE: dict[tuple[type, str, object], str] = {
    (SdrConfig, "chunk_bytes", 1): "chunk size must be a multiple of the MTU",
    (SdrConfig, "mtu_bytes", 1): "max message .* not addressable",
    (SdrConfig, "msg_id_bits", 1): "immediate split must total 32 bits",
    (SdrConfig, "offset_bits", 1): "immediate split must total 32 bits",
    (SdrConfig, "user_imm_bits", 0): "immediate split must total 32 bits",
    (ImmLayout, "msg_id_bits", 1): "immediate fields must total 32 bits",
    (ImmLayout, "offset_bits", 1): "immediate fields must total 32 bits",
    (ImmLayout, "user_imm_bits", 0): "immediate fields must total 32 bits",
    (FaultWindow, "kind", "dpa_stall"): "dpa_stall windows need a finite end",
    (FaultWindow, "kind", "node_crash"): "node_crash windows need a target node",
    (OpenLoopConfig, "mean_message_bytes", 1): "min message size 256 above mean 1",
    (SloSpec, "goodput_fraction", 1): "goodput_fraction needs quota_bps",
    (SloSpec, "goodput_fraction", math.nextafter(0, 1)): "goodput_fraction needs quota_bps",
}


def _build(cls: type, name: str, value):
    required = [
        f.name for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING
    ]
    kwargs = dict(zip(required, REQUIRED[cls] if required else ()))
    kwargs[name] = value
    return cls(**kwargs)


def _step(value, kind: str, up: bool):
    """The value next to ``value`` in the field's type, above or below."""
    if kind == "int":
        return value + 1 if up else value - 1
    if kind == "float":
        return math.nextafter(value, math.inf if up else -math.inf)
    assert kind == "str" and up, "a string bound is a non-empty check"
    return value + "\0"


def _edges(limit: Bound, kind: str) -> tuple[list, list]:
    """``(values outside, values inside)`` nearest each edge of ``limit``."""
    if limit.one_of is not None:
        return ["not-" + "-".join(sorted(limit.one_of))], sorted(limit.one_of)
    outside, inside = [], []
    for value, up, strict in (
        (limit.gt, True, True), (limit.ge, True, False),
        (limit.lt, False, True), (limit.le, False, False),
    ):
        if value is None:
            continue
        if strict:
            outside.append(value)
            inside.append(_step(value, kind, up))
        else:
            outside.append(_step(value, kind, not up))
            inside.append(value)
    return outside, inside


ROWS = [
    pytest.param(cls, name, text, id=f"{cls.__name__}.{name}")
    for cls, table in TABLES.items()
    for name, text in table.items()
]


@pytest.mark.parametrize("cls, name, text", ROWS)
def test_bound_holds_at_both_edges(cls, name, text):
    field = next(f for f in fields(cls) if f.name == name)
    limit = field.metadata["bound"]
    assert str(limit) == text
    kind = field.type.split(" | ")[0]
    outside, inside = _edges(limit, kind)
    if not limit.optional:
        outside.append(None)
    for value in outside:
        message = f"{name} must be {text}, got {value!r}"
        with pytest.raises(ConfigError) as err:
            _build(cls, name, value)
        assert str(err.value) == message
    if limit.optional:
        inside.append(None)
    for value in inside:
        if (cls, name, value) not in CROSS_AT_EDGE:
            assert getattr(_build(cls, name, value), name) == value
        else:
            cross = CROSS_AT_EDGE[cls, name, value]
            with pytest.raises(ConfigError, match=cross) as err:
                _build(cls, name, value)
            assert not str(err.value).startswith(f"{name} must be")


def test_every_bound_is_in_a_table():
    for cls, table in TABLES.items():
        live = [f.name for f in fields(cls) if "bound" in f.metadata]
        assert live == list(table), cls.__name__


def test_every_config_class_has_a_table():
    declared = {
        m.group(1)
        for path in SRC.rglob("*.py")
        for m in re.finditer(r"^class (\w+Config)\b", path.read_text(), re.M)
    }
    assert declared == {c.__name__ for c in TABLES if c.__name__.endswith("Config")}


def test_cross_at_edge_cases_are_edges():
    """Every ``CROSS_AT_EDGE`` key is an inside edge some row reaches."""
    reached = set()
    for cls, table in TABLES.items():
        for name in table:
            field = next(f for f in fields(cls) if f.name == name)
            _, inside = _edges(field.metadata["bound"], field.type.split(" | ")[0])
            reached |= {(cls, name, v) for v in inside}
    assert set(CROSS_AT_EDGE) <= reached


# -- the checks that span fields ---------------------------------------------

_MISALIGNED = (
    _build(OpenLoopConfig, "tenants", 1),
    np.zeros(2), np.zeros(2, np.int32), np.ones(3, np.int64), np.ones(1),
)

#: ``(class, positional args, keywords, message)``: one row per surviving
#: ``raise`` in a check that spans fields.
CROSS_FIELD = [
    pytest.param(
        SdrConfig, (), {"chunk_bytes": 6 * KiB},
        r"chunk size must be a multiple of the MTU \(chunk=6144, mtu=4096\)",
        id="SdrConfig.chunk_bytes_per_mtu",
    ),
    pytest.param(
        SdrConfig, (), {"msg_id_bits": 11},
        r"immediate split must total 32 bits, got 11\+18\+4",
        id="SdrConfig.immediate_split",
    ),
    pytest.param(
        SdrConfig, (), {"max_message_bytes": GiB + 1},
        r"max message 1073741825 B not addressable with 18 offset bits",
        id="SdrConfig.addressable",
    ),
    pytest.param(
        SdrConfig, (), {"inflight_messages": 1025},
        r"inflight messages must be <= 2\*\*msg_id_bits = 1024, got 1025",
        id="SdrConfig.inflight_per_msg_ids",
    ),
    pytest.param(
        ImmLayout, (10, 18, 5), {},
        r"immediate fields must total 32 bits, got 10\+18\+5",
        id="ImmLayout.split",
    ),
    pytest.param(
        ScaleConfig, (), {"tors": 1, "hosts_per_tor": 1},
        r"scale topology needs >= 2 hosts",
        id="ScaleConfig.hosts",
    ),
    pytest.param(
        FaultWindow, ("blackout", 1.0, 1.0), {},
        r"window end must be > start, got \[1.0, 1.0\)",
        id="FaultWindow.end_after_start",
    ),
    pytest.param(
        FaultWindow, ("dpa_stall", 0.0), {},
        r"dpa_stall windows need a finite end",
        id="FaultWindow.dpa_stall_end",
    ),
    pytest.param(
        FaultWindow, ("dpa_crash", 0.0), {"plane": 0},
        r"plane selector only applies to channel faults, not 'dpa_crash'",
        id="FaultWindow.plane_kind",
    ),
    pytest.param(
        FaultWindow, ("blackout", 0.0), {"edge": ("a", "b")},
        r"edge target only applies to edge_down, not 'blackout'",
        id="FaultWindow.edge_kind",
    ),
    pytest.param(
        FaultWindow, ("edge_down", 0.0), {"edge": ("a", "b", "c")},
        r"edge must be a \(u, v\) pair of node names, got \('a', 'b', 'c'\)",
        id="FaultWindow.edge_pair",
    ),
    pytest.param(
        FaultWindow, ("edge_down", 0.0), {"edge": ["a", "a"]},
        r"edge endpoints must differ, got \('a', 'a'\)",
        id="FaultWindow.edge_endpoints",
    ),
    pytest.param(
        FaultWindow, ("node_crash", 0.0), {},
        r"node_crash windows need a target node",
        id="FaultWindow.node_crash_target",
    ),
    pytest.param(
        FaultWindow, ("blackout", 0.0), {"node": "tor0"},
        r"node target only applies to node_crash, not 'blackout'",
        id="FaultWindow.node_kind",
    ),
    pytest.param(
        FaultSchedule, (("blackout",),), {},
        r"schedule entries must be FaultWindow, got 'blackout'",
        id="FaultSchedule.entries",
    ),
    pytest.param(
        Workload, _MISALIGNED, {},
        r"workload arrays must align",
        id="Workload.arrays",
    ),
    pytest.param(
        OpenLoopConfig, REQUIRED[OpenLoopConfig],
        {"mean_message_bytes": KiB, "max_message_bytes": KiB - 1},
        r"max message size 1023 below mean 1024",
        id="OpenLoopConfig.max_below_mean",
    ),
    pytest.param(
        OpenLoopConfig, REQUIRED[OpenLoopConfig],
        {"mean_message_bytes": KiB, "min_message_bytes": KiB + 1},
        r"min message size 1025 above mean 1024",
        id="OpenLoopConfig.min_above_mean",
    ),
    pytest.param(
        SloSpec, ("t",), {"goodput_fraction": 0.5},
        r"tenant 't': goodput_fraction needs quota_bps",
        id="SloSpec.goodput_needs_quota",
    ),
    pytest.param(
        BurnPolicy, (), {"short_windows": 3, "long_windows": 2},
        r"long_windows \(2\) must be >= short_windows \(3\)",
        id="BurnPolicy.long_after_short",
    ),
]


@pytest.mark.parametrize("cls, args, kwargs, message", CROSS_FIELD)
def test_cross_field_check(cls, args, kwargs, message):
    with pytest.raises(ConfigError, match=message):
        cls(*args, **kwargs)
