"""The Section 5.4 client-server testbed harness.

``generator_serve`` / ``generator_await_cqes`` keep the SDR server and the
RC completion waiter as the generator processes they were; the
differentials below hold the callback forms to them dispatch for dispatch.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ChannelConfig, DpaConfig, SdrConfig
from repro.common.errors import ConfigError
from repro.common.units import KiB
from repro.experiments import testbed
from repro.experiments.testbed import run_rc_throughput, run_sdr_throughput
from repro.sdr.qp import SdrRecvWr

from tests.conftest import recording_sims


def channel():
    return ChannelConfig(bandwidth_bps=100e9, distance_km=0.1, mtu_bytes=4 * KiB)


class TestThroughput:
    def test_sdr_loop_reaches_most_of_line_rate(self):
        res = run_sdr_throughput(
            message_bytes=512 * KiB,
            n_messages=8,
            channel=channel(),
            sdr=SdrConfig(chunk_bytes=64 * KiB, max_message_bytes=512 * KiB),
        )
        assert res.total_bytes == 8 * 512 * KiB
        assert res.throughput_bps > 0.7 * 100e9
        assert res.packet_rate > 0

    def test_rc_baseline_near_line_rate(self):
        res = run_rc_throughput(
            message_bytes=512 * KiB, n_messages=8, channel=channel()
        )
        assert res.throughput_bps > 0.9 * 100e9

    def test_small_messages_slower_than_rc(self):
        """The Figure 14 repost-overhead effect."""
        ch = channel()
        sdr = run_sdr_throughput(
            message_bytes=16 * KiB,
            n_messages=16,
            channel=ch,
            sdr=SdrConfig(chunk_bytes=16 * KiB, max_message_bytes=64 * KiB),
        )
        rc = run_rc_throughput(message_bytes=16 * KiB, n_messages=16, channel=ch)
        assert sdr.throughput_bps < rc.throughput_bps

    def test_dpa_bottleneck_caps_packet_rate(self):
        """With one slow worker, throughput is worker-bound, not wire-bound."""
        res = run_sdr_throughput(
            message_bytes=256 * KiB,
            n_messages=8,
            channel=channel(),
            sdr=SdrConfig(
                chunk_bytes=64 * KiB, max_message_bytes=256 * KiB, channels=1
            ),
            dpa=DpaConfig(worker_threads=1, per_cqe_seconds=4e-6),
        )
        # 1 worker at 4 us/CQE = 250 kpps = ~8.2 Gbit/s at 4 KiB.
        assert res.throughput_bps < 12e9
        assert res.packet_rate == pytest.approx(250e3, rel=0.2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            run_sdr_throughput(message_bytes=4 * KiB, n_messages=0)


def generator_serve(sim, qp, mr, length, n_messages, window):
    """``testbed._serve`` before the callbacks: one server process."""
    done = sim.event()

    def server():
        handles = [qp.recv_post(SdrRecvWr(mr=mr, length=length)) for _ in range(window)]
        posted, completed = window, 0
        while completed < n_messages:
            hdl = handles.pop(0)
            yield hdl.wait_all_chunks()
            hdl.complete()
            completed += 1
            if posted < n_messages:
                handles.append(qp.recv_post(SdrRecvWr(mr=mr, length=length)))
                posted += 1
        done.succeed(sim.now)

    sim.process(server())
    return done


def generator_await_cqes(sim, cq, n):
    """``testbed._await_cqes`` before the callbacks: one waiter process."""
    done = sim.event()

    def waiter():
        got = 0
        while got < n:
            yield cq.wait_nonempty()
            got += len(cq.poll(max_entries=n))
        done.succeed(sim.now)

    sim.process(waiter())
    return done


def recorded(name, replacement, run, **kw):
    """``run(**kw)`` with ``testbed.name`` replaced by ``replacement``.

    Returns the result and every dispatched entry.
    """
    with recording_sims() as sims, mock.patch.object(testbed, name, replacement):
        result = run(**kw)
    return result, sims[0].dispatched


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([16 * KiB, 64 * KiB, 200 * KiB]),
    st.integers(1, 6),
    st.integers(1, 4),
    st.sampled_from([1, 16]),
)
def test_serve_chain_matches_generator_server(size, n_messages, inflight, threads):
    """Fewer receives in flight than messages: every repost path runs."""
    kw = dict(
        message_bytes=size, n_messages=n_messages, inflight=inflight,
        channel=channel(), dpa=DpaConfig(worker_threads=threads),
        sdr=SdrConfig(chunk_bytes=16 * KiB, max_message_bytes=256 * KiB),
    )
    got = recorded("_serve", testbed._serve, run_sdr_throughput, **kw)
    assert got == recorded("_serve", generator_serve, run_sdr_throughput, **kw)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([4 * KiB, 64 * KiB, 200 * KiB]),
    st.integers(1, 8),
    st.sampled_from([0.0, 0.01]),
)
def test_cqe_wait_matches_generator_waiter(size, n_messages, drop):
    kw = dict(
        message_bytes=size, n_messages=n_messages, seed=5,
        channel=dataclasses.replace(channel(), drop_probability=drop),
    )
    got = recorded("_await_cqes", testbed._await_cqes, run_rc_throughput, **kw)
    assert got == recorded("_await_cqes", generator_await_cqes, run_rc_throughput, **kw)
