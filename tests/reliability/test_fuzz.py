"""Property-based protocol fuzzing: reliability layers always deliver.

Hypothesis drives random channel conditions (drop rate, jitter,
duplication), message geometries and protocol choices through the full
packet-level stack; the invariant is total: every write completes and every
byte lands where it belongs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.units import KiB, distance_to_rtt
from repro.reliability.ec import EcConfig, EcReceiver, EcSender
from repro.reliability.sr import SrConfig, SrReceiver, SrSender

from tests.conftest import make_sdr_pair, random_schedule


def _payload(size, seed):
    return np.random.default_rng(seed).integers(
        0, 256, size, dtype=np.uint8
    ).tobytes()


@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    drop=st.sampled_from([0.0, 0.01, 0.05, 0.15]),
    jitter=st.sampled_from([0.0, 0.3]),
    duplicate=st.sampled_from([0.0, 0.1]),
    size_kib=st.integers(4, 256),
    nack=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_sr_always_delivers(drop, jitter, duplicate, size_kib, nack, seed):
    pair = make_sdr_pair(drop=drop, jitter=jitter, seed=seed)
    if duplicate:
        from dataclasses import replace

        link = pair.fabric.links[("dc-a", "dc-b")]
        link.forward.config = replace(
            link.forward.config, duplicate_probability=duplicate
        )
    cfg = SrConfig(nack_enabled=nack)
    sender = SrSender(pair.qp_a, pair.ctrl_a, cfg)
    receiver = SrReceiver(pair.qp_b, pair.ctrl_b, cfg)
    size = size_kib * KiB
    payload = _payload(size, seed)
    buf = bytearray(size)
    mr = pair.ctx_b.mr_reg(size, data=buf)
    receiver.post_receive(mr, size)
    ticket = sender.write(size, payload)
    pair.sim.run(ticket.done)
    assert not ticket.failed
    assert bytes(buf) == payload


@pytest.mark.chaos
@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    drop=st.sampled_from([0.0, 0.02]),
    size_kib=st.integers(16, 128),
    nack=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_sr_delivers_under_random_fault_schedules(drop, size_kib, nack, seed):
    """Fault-schedule fuzz axis: seeded random blackout/reorder windows.

    :func:`tests.conftest.random_schedule` keeps every window short relative to the
    horizon, so the invariant stays eventual delivery, never clean failure.
    """
    rtt = distance_to_rtt(100.0)  # make_sdr_pair's default link
    schedule = random_schedule(np.random.default_rng(seed), rtt=rtt)
    pair = make_sdr_pair(drop=drop, seed=seed, faults=schedule)
    cfg = SrConfig(
        nack_enabled=nack,
        rto_backoff=True,
        max_message_retransmits=10_000,
    )
    sender = SrSender(pair.qp_a, pair.ctrl_a, cfg)
    receiver = SrReceiver(pair.qp_b, pair.ctrl_b, cfg)
    size = size_kib * KiB
    payload = _payload(size, seed)
    buf = bytearray(size)
    mr = pair.ctx_b.mr_reg(size, data=buf)
    receiver.post_receive(mr, size)
    ticket = sender.write(size, payload)
    pair.sim.run(ticket.done)
    assert not ticket.failed
    assert bytes(buf) == payload


@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    drop=st.sampled_from([0.0, 0.02, 0.1, 0.25]),
    size_kib=st.integers(16, 256),
    codec_km=st.sampled_from([("mds", 8, 4), ("mds", 8, 2), ("xor", 8, 4)]),
    seed=st.integers(0, 10_000),
)
def test_ec_always_delivers(drop, size_kib, codec_km, seed):
    codec, k, m = codec_km
    pair = make_sdr_pair(drop=drop, seed=seed, inflight=128)
    cfg = EcConfig(codec=codec, k=k, m=m)
    sender = EcSender(pair.qp_a, pair.ctrl_a, cfg)
    receiver = EcReceiver(pair.qp_b, pair.ctrl_b, cfg)
    size = size_kib * KiB
    payload = _payload(size, seed)
    buf = bytearray(size)
    mr = pair.ctx_b.mr_reg(size, data=buf)
    receiver.post_receive(mr, size)
    ticket = sender.write(size, payload)
    pair.sim.run(ticket.done)
    assert not ticket.failed
    assert bytes(buf) == payload
