"""``repro.stack``: the builder is the hand wiring, proven differentially.

This file keeps the tree's one hand-written reference outside
``examples/quickstart.py``: :func:`hand_pair` is ``tests/conftest.py::
make_sdr_pair``'s body as it stood before ``repro.stack`` existed (recorded
on the parent commit, before any ``src/`` edit), and :data:`HAND` the
spelled-out endpoint constructors.  Same seed, same link, same scheme must
give the same JSONL trace and the same registry, byte for byte.
"""

import hashlib
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import ChannelConfig, SdrConfig
from repro.common.errors import ConfigError
from repro.common.units import KiB, MiB, distance_to_rtt
from repro.faults import install_link_faults, named_schedule
from repro.net.multipath import connect_bonded
from repro.reliability import SCHEMES, register_scheme
from repro.reliability.base import ControlPath
from repro.reliability.ec import EcConfig, EcReceiver, EcSender
from repro.reliability.sampling import (
    SamplingConfig,
    SamplingReceiver,
    SamplingSender,
)
from repro.reliability.sr import SrConfig, SrReceiver, SrSender
from repro.sdr.context import context_create
from repro.sim.engine import Simulator
from repro.stack import Stack, Wire, build_pair, endpoints, wire
from repro.telemetry import JsonlSink, Telemetry
from repro.verbs.device import Fabric

from tests.conftest import make_sdr_pair, random_schedule
from tests.reliability.conftest import random_payload

RTT = distance_to_rtt(100.0)  # make_sdr_pair's default link


# -- the reference: every step spelled out, nothing shared with repro.stack ----


def hand_pair(
    *, drop=0.0, seed=0, inflight=16, faults=None, planes=None, telemetry=None
):
    sim = Simulator(telemetry=telemetry, config=None)
    fabric = Fabric(sim, seed=seed)
    dev_a = fabric.add_device("dc-a")
    dev_b = fabric.add_device("dc-b")
    channel = ChannelConfig(
        bandwidth_bps=100e9,
        distance_km=100.0,
        mtu_bytes=4 * KiB,
        drop_probability=drop,
        jitter_fraction=0.0,
        buffer_bytes=0,
        ecn_threshold_bytes=0,
    )
    if planes is not None:
        connect_bonded(fabric, dev_a, dev_b, channel, planes=planes, spread="flow")
    else:
        fabric.connect(dev_a, dev_b, channel)
    if faults is not None:
        # Must precede QP / control-path connects: QPs cache their channel.
        install_link_faults(fabric, dev_a, dev_b, faults)
    sdr_cfg = SdrConfig(
        chunk_bytes=8 * KiB,
        max_message_bytes=4 * MiB,
        mtu_bytes=4 * KiB,
        channels=4,
        generations=4,
        inflight_messages=inflight,
    )
    ctx_a = context_create(dev_a, sdr_config=sdr_cfg, dpa_config=None)
    ctx_b = context_create(dev_b, sdr_config=sdr_cfg, dpa_config=None)
    qp_a = ctx_a.qp_create()
    qp_b = ctx_b.qp_create()
    qp_a.connect(qp_b.info_get())
    qp_b.connect(qp_a.info_get())
    ctrl_a = ControlPath(ctx_a)
    ctrl_b = ControlPath(ctx_b)
    ctrl_a.connect(ctrl_b.info())
    ctrl_b.connect(ctrl_a.info())
    return SimpleNamespace(
        sim=sim, ctx_b=ctx_b, qp_a=qp_a, qp_b=qp_b, ctrl_a=ctrl_a, ctrl_b=ctrl_b
    )


#: scheme -> (sender type, receiver type, the config both builds are given).
HAND = {
    "sr": (SrSender, SrReceiver, SrConfig()),
    "ec": (EcSender, EcReceiver, EcConfig(k=8, m=4)),
    "sampling": (SamplingSender, SamplingReceiver, SamplingConfig()),
}


def by_hand(scheme, **pair_kw):
    pair = hand_pair(**pair_kw)
    sender_type, receiver_type, config = HAND[scheme]
    return (
        pair,
        sender_type(pair.qp_a, pair.ctrl_a, config),
        receiver_type(pair.qp_b, pair.ctrl_b, config),
    )


def by_builder(scheme, **pair_kw):
    pair = make_sdr_pair(**pair_kw)
    return (pair, *endpoints(scheme, pair, HAND[scheme][2]))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(build, scheme, size, **pair_kw) -> tuple[str, str, str]:
    """(trace sha256, registry sha256, drained clock) of one write."""
    out = io.StringIO()
    telemetry = Telemetry(trace=True, trace_sinks=[JsonlSink(out)])
    pair, sender, receiver = build(
        scheme, inflight=64, telemetry=telemetry, **pair_kw
    )
    receiver.post_receive(pair.ctx_b.mr_reg(size, data=bytearray(size)), size)
    sender.write(size, random_payload(size, pair_kw["seed"]))
    pair.sim.run()
    assert out.getvalue()
    registry = json.dumps(telemetry.metrics.snapshot(), sort_keys=True)
    return _sha(out.getvalue()), _sha(registry), repr(pair.sim.now)


#: link flavour -> seed -> the pair kwargs that differ from a plain link.
LINKS = {
    "plain": lambda seed: {},
    "planes2": lambda seed: {"planes": 2},
    "faulted": lambda seed: {
        "faults": random_schedule(np.random.default_rng(seed), rtt=RTT)
    },
}


@pytest.mark.parametrize("link", sorted(LINKS))
@pytest.mark.parametrize("scheme", sorted(HAND))
@settings(
    max_examples=4,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    drop=st.sampled_from([0.0, 0.01, 0.03]),
    size_kib=st.integers(16, 256),
)
def test_builder_is_the_hand_wiring(scheme, link, seed, drop, size_kib):
    kwargs = dict(seed=seed, drop=drop, **LINKS[link](seed))
    size = size_kib * KiB
    assert digests(by_builder, scheme, size, **kwargs) == digests(
        by_hand, scheme, size, **kwargs
    )


def _two_contexts():
    sim = Simulator()
    fabric = Fabric(sim, seed=0)
    a, b = fabric.add_device("a"), fabric.add_device("b")
    fabric.connect(a, b, ChannelConfig())
    return context_create(a), context_create(b)


@pytest.mark.parametrize("n", [1, 3])
def test_wire_n_times_is_n_hand_handshakes_in_order(n):
    ctx_a, ctx_b = _two_contexts()
    wired = [wire(ctx_a, ctx_b) for _ in range(n)]
    ctx_a, ctx_b = _two_contexts()
    by_hand_edges = []
    for _ in range(n):
        qp_a, qp_b = ctx_a.qp_create(), ctx_b.qp_create()
        qp_a.connect(qp_b.info_get())
        qp_b.connect(qp_a.info_get())
        ctrl_a, ctrl_b = ControlPath(ctx_a), ControlPath(ctx_b)
        ctrl_a.connect(ctrl_b.info())
        ctrl_b.connect(ctrl_a.info())
        by_hand_edges.append(Wire(qp_a, qp_b, ctrl_a, ctrl_b))

    def blobs(edge):  # rkeys come from a process-global counter: left out
        a, b = edge.qp_a.info_get(), edge.qp_b.info_get()
        return (
            a.ctrl_qpn, a.data_qpns, b.ctrl_qpn, b.data_qpns,
            edge.ctrl_a.info(), edge.ctrl_b.info(),
        )

    assert [blobs(e) for e in wired] == [blobs(e) for e in by_hand_edges]
    assert all(e.qp_a.connected and e.qp_b.connected for e in wired)
    assert all(
        (e.ctrl_a.qp.dst_qpn, e.ctrl_b.qp.dst_qpn)
        == (e.ctrl_b.info().qpn, e.ctrl_a.info().qpn)
        for e in wired
    )


def test_build_pair_wires_both_sides_and_records_what_it_built():
    channel = ChannelConfig(bandwidth_bps=100e9, distance_km=0.1)
    stack = build_pair(channel, names=("client", "server"))
    assert isinstance(stack, Stack) and stack.channel is channel
    assert stack.qp_a.connected and stack.qp_b.connected
    assert (stack.dev_a.name, stack.dev_b.name) == ("client", "server")
    assert stack.qp_a.ctx is stack.ctx_a and stack.ctrl_b.ctx is stack.ctx_b
    assert stack.bonded is None
    assert build_pair(channel, planes=2).bonded is not None


def test_mtu_mismatch_rejected():
    # A valid 2 KiB-MTU SDR config: the refusal is build_pair's, not the
    # config's own offset-bits check.
    sdr = SdrConfig(mtu_bytes=2 * KiB, chunk_bytes=64 * KiB, max_message_bytes=64 * MiB)
    with pytest.raises(ConfigError, match="SDR MTU 2048 must match channel MTU 4096"):
        build_pair(ChannelConfig(mtu_bytes=4 * KiB), sdr)


def test_faults_means_link_and_receive_side_dpa_windows():
    """One meaning for ``faults=``: a schedule's ``dpa_windows`` are armed on
    the receive side whichever harness or fixture hands it over."""
    pair = make_sdr_pair(faults=named_schedule("dpa-stall", rtt=RTT))
    pair.sim.run(until=6 * RTT)  # the stall window opens at 5 RTT
    assert pair.sim.telemetry.metrics.value("faults.dpa.stalls") == 1
    assert pair.ctx_b.dpa.workers[0]._stall_until == pytest.approx(25 * RTT)
    assert pair.ctx_a.dpa.workers[0]._stall_until == 0.0


def test_duplicate_register_scheme_raises():
    register_scheme("sr", SrSender, SrReceiver)  # same entry: a no-op
    with pytest.raises(ConfigError, match="already registered"):
        register_scheme("sr", EcSender, EcReceiver)
    assert SCHEMES["sr"] == (SrSender, SrReceiver, {})


def test_unknown_scheme_names_the_registered_ones(sdr_pair):
    with pytest.raises(ConfigError) as excinfo:
        endpoints("nope", sdr_pair)
    assert all(name in str(excinfo.value) for name in SCHEMES.complete())


def test_sr_nack_is_sr_with_the_registered_override(sdr_pair):
    sender, receiver = endpoints("sr_nack", sdr_pair)
    assert isinstance(sender, SrSender) and sender.config.nack_enabled
    assert receiver.config == sender.config
