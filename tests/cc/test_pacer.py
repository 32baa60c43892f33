"""Unit tests for the sim-time token-bucket pacer."""

import numpy as np
import pytest

from repro.cc import Pacer, StaticRateController, SwiftController, TokenBucketGroup
from repro.common.errors import ConfigError
from repro.common.units import KiB
from repro.sim.engine import Simulator

GBPS = 1e9


def make(rate_bps=8 * GBPS, **kw):
    sim = Simulator()
    pacer = Pacer(sim, StaticRateController(rate_bps), **kw)
    return sim, pacer


class TestReserve:
    def test_unpaced_bypasses_buckets(self):
        sim, pacer = make(rate_bps=None)
        for _ in range(1000):
            assert pacer.reserve(4096) == 0.0
        # The fast path must not even count packets (zero overhead).
        assert sim.telemetry.metrics.value("cc.cc.paced_packets") == 0

    def test_unpaced_batch_has_no_waits(self):
        sim, pacer = make(rate_bps=None)
        assert pacer.reserve_batch(np.cumsum(np.full(64, 4096.0))) is None
        assert sim.telemetry.metrics.value("cc.cc.paced_packets") == 0

    def test_burst_passes_then_paces(self):
        # 8 Gbit/s = 1 GB/s; 16 KiB burst = four 4 KiB packets for free.
        sim, pacer = make(burst_bytes=16 * 4096)
        for _ in range(16):
            assert pacer.reserve(4096) == 0.0
        wait = pacer.reserve(4096)
        assert wait == pytest.approx(4096 / 1e9)

    def test_deficit_accumulates_same_instant(self):
        sim, pacer = make(burst_bytes=4096)
        assert pacer.reserve(4096) == 0.0
        w1 = pacer.reserve(4096)
        w2 = pacer.reserve(4096)
        # Consecutive same-instant reserves space exactly one
        # serialization time further out each.
        assert w2 - w1 == pytest.approx(4096 / 1e9)

    def test_refill_with_time(self):
        sim, pacer = make(burst_bytes=4096)
        pacer.reserve(4096)
        wait = pacer.reserve(4096)
        assert wait > 0
        sim.run(until=wait + 4096 / 1e9)  # debt paid plus one packet credit
        assert pacer.reserve(4096) == 0.0

    def test_planes_split_budget(self):
        sim, pacer = make(planes=2, burst_bytes=4096)
        pacer.reserve(4096, flow=0)
        pacer.reserve(4096, flow=1)
        # Each plane has half the rate, so the per-plane deficit drains
        # at half speed: double the single-bucket wait.
        w0 = pacer.reserve(4096, flow=0)
        assert w0 == pytest.approx(2 * 4096 / 1e9)
        # Plane 1's bucket is independent but equally deep.
        assert pacer.reserve(4096, flow=3) == pytest.approx(w0)

    def test_plane_backlog_reports_deficit(self):
        sim, pacer = make(burst_bytes=4096)
        assert pacer.plane_backlog(0) == 0.0
        pacer.reserve(4096)
        pacer.reserve(4096)
        assert pacer.plane_backlog(0) == pytest.approx(4096 / 1e9)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            Pacer(sim, StaticRateController(), planes=0)
        with pytest.raises(ConfigError):
            Pacer(sim, StaticRateController(), burst_bytes=0)


class TestSharing:
    """Multiple QPs on one link must draw from a single token bucket."""

    def test_shared_group_enforces_aggregate_rate(self):
        # Two pacers (one per QP) on the same 8 Gbit/s link.  Sharing the
        # group means the second QP sees the deficit the first created --
        # the two QPs split the link instead of each assuming they own it.
        sim = Simulator()
        ctrl = StaticRateController(8 * GBPS)
        group = TokenBucketGroup(sim, ctrl, burst_bytes=4096)
        qp_a = Pacer(sim, ctrl, name="qp_a", buckets=group)
        qp_b = Pacer(sim, ctrl, name="qp_b", buckets=group)
        assert qp_a.reserve(4096) == 0.0  # burst
        wait_b = qp_b.reserve(4096)
        assert wait_b == pytest.approx(4096 / 1e9)
        # And deeper: a third reserve from either pacer queues behind both.
        assert qp_a.reserve(4096) == pytest.approx(2 * 4096 / 1e9)

    def test_private_groups_do_not_interact(self):
        # The historical (buggy-for-multiplexing) shape: each pacer builds
        # its own bucket, so neither sees the other's spending.
        sim = Simulator()
        qp_a = Pacer(sim, StaticRateController(8 * GBPS), name="a",
                     burst_bytes=4096)
        qp_b = Pacer(sim, StaticRateController(8 * GBPS), name="b",
                     burst_bytes=4096)
        assert qp_a.reserve(4096) == 0.0
        assert qp_b.reserve(4096) == 0.0  # full burst again: private bucket

    def test_shared_group_requires_shared_controller(self):
        sim = Simulator()
        group = TokenBucketGroup(sim, StaticRateController(8 * GBPS))
        with pytest.raises(ConfigError):
            Pacer(sim, StaticRateController(8 * GBPS), buckets=group)

    def test_each_pacer_keeps_its_own_metrics(self):
        sim = Simulator()
        ctrl = StaticRateController(8 * GBPS)
        group = TokenBucketGroup(sim, ctrl, burst_bytes=64 * 1024)
        qp_a = Pacer(sim, ctrl, name="qp_a", buckets=group)
        qp_b = Pacer(sim, ctrl, name="qp_b", buckets=group)
        qp_a.reserve(4096)
        qp_a.reserve(4096)
        qp_b.reserve(4096)
        m = sim.telemetry.metrics
        assert m.value("cc.qp_a.paced_packets") == 2
        assert m.value("cc.qp_b.paced_packets") == 1

    def test_group_validation(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            TokenBucketGroup(sim, StaticRateController(), planes=0)
        with pytest.raises(ConfigError):
            TokenBucketGroup(sim, StaticRateController(), burst_bytes=0)


class TestBindFlow:
    def test_unbound_flows_hash(self):
        sim, pacer = make(planes=2)
        assert pacer.plane_of(2) == 0
        assert pacer.plane_of(3) == 1


class TestSignals:
    def test_signals_count_and_forward(self):
        sim = Simulator()
        ctrl = SwiftController(line_rate_bps=100 * GBPS, base_rtt=1e-3)
        pacer = Pacer(sim, ctrl, name="s")
        pacer.on_rtt_sample(10e-3)  # overshoot: rate cut
        pacer.on_ecn_echo(3, 7)
        pacer.on_ack_progress()
        pacer.on_loss()
        m = sim.telemetry.metrics
        assert m.value("cc.s.rtt_samples") == 1
        assert m.value("cc.s.ecn_marked") == 3
        assert m.value("cc.s.ecn_seen") == 7
        assert m.value("cc.s.acks_clean") == 1
        assert m.value("cc.s.loss_signals") == 1
        assert ctrl.rate_bps < 100 * GBPS
        # The gauge tracks the controller.
        assert m.value("cc.s.rate_bps") == ctrl.rate_bps

    def test_stall_accounting(self):
        sim, pacer = make()
        pacer.note_stall(0.25)
        pacer.note_stall(0.5)
        m = sim.telemetry.metrics
        assert m.value("cc.cc.pacing_stalls") == 2
        assert m.value("cc.cc.stall_seconds") == pytest.approx(0.75)


class TestReserveBatch:
    def test_matches_sequential_scalar_reserves(self):
        from repro.cc.controller import StaticRateController
        from repro.cc.pacer import TokenBucketGroup
        from repro.sim.engine import Simulator

        def build():
            sim = Simulator()
            sim.call_at(0.001, lambda: None)
            sim.run()  # park the clock mid-run at t=1ms
            group = TokenBucketGroup(
                sim, controller=StaticRateController(10e9), planes=1
            )
            return sim, group

        rng = np.random.default_rng(3)
        sizes = rng.integers(1, 256 * KiB, 40).astype(np.float64)

        _, seq = build()
        waits_seq = [seq.reserve(int(s)) for s in sizes]

        _, bat = build()
        waits_bat = bat.reserve_batch(np.cumsum(sizes))
        np.testing.assert_allclose(
            waits_bat, np.array(waits_seq), rtol=1e-9, atol=1e-15
        )
