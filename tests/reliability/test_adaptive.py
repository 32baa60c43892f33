"""Adaptive per-connection reliability provisioning."""

import pytest

from repro.common.errors import ConfigError, DeliveryError, SdrStateError
from repro.common.units import KiB, MiB
from repro.reliability.adaptive import (
    PROVISION_TIMEOUT_RTTS,
    AdaptiveReceiver,
    AdaptiveSender,
    DropRateEstimator,
    ProtocolAdvisor,
)
from repro.reliability.base import ControlPath
from repro.reliability.ec import EcConfig

from tests.conftest import all_of, drains_within, make_sdr_pair
from tests.reliability.conftest import random_payload


def make_adaptive(*, drop=0.0, seed=0, initial_estimate=1e-6, **pair_kw):
    pair = make_sdr_pair(drop=drop, seed=seed, inflight=64, **pair_kw)
    ec_cfg = EcConfig(codec="mds", k=8, m=4)
    sender = AdaptiveSender(pair.qp_a, pair.ctrl_a, ec_config=ec_cfg)
    receiver = AdaptiveReceiver(
        pair.qp_b,
        pair.ctrl_b,
        ec_config=ec_cfg,
        estimator=DropRateEstimator(initial=initial_estimate),
    )
    return pair, sender, receiver


class TestAdvisor:
    def advisor(self):
        return ProtocolAdvisor(
            bandwidth_bps=400e9, rtt=25e-3, chunk_bytes=64 * KiB
        )

    def test_clean_large_message_prefers_sr(self):
        best = self.advisor().best(64 * 1024 * MiB, 1e-8)
        assert best.name == "sr_rto"

    def test_lossy_medium_message_prefers_ec(self):
        best = self.advisor().best(128 * MiB, 1e-3)
        assert best.name.startswith("ec")

    def test_rank_is_sorted(self):
        ranked = self.advisor().rank(128 * MiB, 1e-4)
        times = [r.expected_seconds for r in ranked]
        assert times == sorted(times)

    def test_empty_menu_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolAdvisor(
                bandwidth_bps=1e9, rtt=1e-3, chunk_bytes=1024, ec_menu=()
            )


class TestEstimator:
    def test_ewma_converges(self):
        est = DropRateEstimator(initial=0.0, alpha=0.5)
        for _ in range(20):
            est.observe(10, 100)
        assert est.estimate == pytest.approx(0.1, rel=0.01)
        assert est.observations == 20

    def test_validation(self):
        with pytest.raises(ConfigError):
            DropRateEstimator(alpha=0.0)
        with pytest.raises(ConfigError):
            DropRateEstimator(floor=0.5, ceiling=0.4)
        with pytest.raises(ConfigError):
            DropRateEstimator(floor=-0.1)

    def test_zero_chunk_sample_is_ignored(self):
        """A total_chunks == 0 observation carries no information: it must
        leave the estimate untouched instead of raising or dividing."""
        est = DropRateEstimator(initial=0.25, alpha=0.5)
        before = est.estimate
        assert est.observe(1, 0) == before
        assert est.estimate == before
        assert est.observations == 0

    def test_estimate_clamped_to_floor_and_ceiling(self):
        est = DropRateEstimator(initial=0.5, alpha=1.0, floor=0.01, ceiling=0.9)
        # A wild over-count (lost > total) clamps at the ceiling...
        assert est.observe(1000, 10) == 0.9
        # ...and a run of clean messages cannot push below the floor.
        for _ in range(50):
            est.observe(0, 100)
        assert est.estimate == 0.01


class TestEndToEnd:
    def test_a_receiver_on_an_unconnected_qp_is_refused(self):
        pair = make_sdr_pair()
        qp = pair.ctx_b.qp_create()
        with pytest.raises(SdrStateError, match="connect the SDR QP before"):
            AdaptiveReceiver(qp, ControlPath(pair.ctx_b), rtt=1e-3)

    def test_clean_link_uses_sr_and_delivers(self):
        pair, sender, receiver = make_adaptive()
        size = 256 * KiB
        payload = random_payload(size)
        buf = bytearray(size)
        mr = pair.ctx_b.mr_reg(size, data=buf)
        receiver.post_receive(mr, size)
        ticket = sender.write(size, payload)
        pair.sim.run(ticket.done)
        assert bytes(buf) == payload
        assert receiver.protocol_history == ["sr"]
        assert sender.protocol_history == ["sr"]

    def test_high_estimate_provisions_ec(self):
        pair, sender, receiver = make_adaptive(
            drop=0.01, seed=5, initial_estimate=0.05
        )
        size = 512 * KiB
        payload = random_payload(size, 5)
        buf = bytearray(size)
        mr = pair.ctx_b.mr_reg(size, data=buf)
        receiver.post_receive(mr, size)
        ticket = sender.write(size, payload)
        pair.sim.run(ticket.done)
        assert bytes(buf) == payload
        assert receiver.protocol_history == ["ec"]
        assert sender.protocol_history == ["ec"]

    def test_sender_and_receiver_always_agree(self):
        """Provision messages keep both endpoints in lock-step even as the
        estimate moves across the SR/EC boundary."""
        pair, sender, receiver = make_adaptive(drop=0.02, seed=9)
        size = 256 * KiB
        mr = pair.ctx_b.mr_reg(size)
        tickets = []
        for _ in range(4):
            receiver.post_receive(mr, size)
            tickets.append(sender.write(size))
        pair.sim.run(all_of(pair.sim, [t.done for t in tickets]))
        assert sender.protocol_history == receiver.protocol_history
        assert all(t.finish_time is not None for t in tickets)

    def test_estimator_learns_from_loss(self):
        pair, sender, receiver = make_adaptive(drop=0.05, seed=11)
        size = 512 * KiB
        mr = pair.ctx_b.mr_reg(size)
        before = receiver.estimator.estimate
        receiver.post_receive(mr, size)
        ticket = sender.write(size)
        pair.sim.run(ticket.done)
        assert receiver.estimator.observations == 1
        assert receiver.estimator.estimate > before

    def test_adaptation_switches_protocol_over_time(self):
        """Start with a clean-link estimate; sustained loss should flip the
        receiver's choice from SR to EC within a few messages."""
        pair, sender, receiver = make_adaptive(
            drop=0.05, seed=13, initial_estimate=1e-6
        )
        size = 512 * KiB
        mr = pair.ctx_b.mr_reg(size)
        tickets = []
        for _ in range(5):
            receiver.post_receive(mr, size)
            t = sender.write(size)
            pair.sim.run(t.done)
            tickets.append(t)
        assert receiver.protocol_history[0] == "sr"
        assert "ec" in receiver.protocol_history
        assert sender.protocol_history == receiver.protocol_history

    def test_a_provision_is_announced_twenty_times_at_most(self):
        """The receiver posts and the sender never writes: the provision is
        re-announced with capped backoff twenty times, then it stops."""
        pair, sender, receiver = make_adaptive()
        ticket = receiver.post_receive(pair.ctx_b.mr_reg(256 * KiB), 256 * KiB)
        sent = f"{receiver._track}.provisions_sent"
        metrics = pair.sim.telemetry.metrics
        # 1 + 2 + 4 + 8 + 16 RTTs, then the 32-RTT cap for the rest.
        last = (31 + 14 * 32) * receiver.rtt
        pair.sim.run(until=0.99 * last)
        assert metrics.value(sent) == 19
        pair.sim.run(until=last + 100 * receiver.rtt)
        assert metrics.value(sent) == 20
        assert not ticket.done.triggered

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 25: the receive watch has no idle rule, so under "
        "the default serve_deadline_rtts=None a receive no write reaches "
        "polls its bitmap and re-sends its ACK for ever",
    )
    def test_a_receive_no_write_reaches_drains(self):
        """The receiver posts and the sender never writes: once the
        provision announcements stop, nothing should keep the run alive."""
        pair, _sender, receiver = make_adaptive()
        receiver.post_receive(pair.ctx_b.mr_reg(256 * KiB), 256 * KiB)
        drains_within(pair.sim, dispatches=200_000, sim_seconds=10.0)

    def test_write_without_a_provision_fails_cleanly(self):
        """The receiver never posts, so no provision for message 0 comes:
        the write fails after the provision wait and reaches no backend."""
        pair, sender, receiver = make_adaptive()
        backend_writes = []
        for backend in (sender.sr, sender.ec):
            backend.write = lambda *a, _b=backend.scheme: backend_writes.append(_b)
        size = 256 * KiB
        ticket = sender.write(size)
        errors = []
        ticket.done.callbacks.append(lambda ev: errors.append(ev._error))
        drains_within(
            pair.sim, dispatches=1_000,
            sim_seconds=2 * PROVISION_TIMEOUT_RTTS * sender.rtt,
        )
        [error] = errors
        assert isinstance(error, DeliveryError)
        assert str(error).startswith("no provision for message 0 ")
        assert error.total_chunks == pair.qp_a.config.chunks_in(size)
        assert ticket.failed and ticket.finish_time is None
        assert pair.sim.telemetry.metrics.value(
            f"{sender._track}.provision_timeouts"
        ) == 1
        assert backend_writes == [] and sender.protocol_history == []
        assert pair.sim.now >= PROVISION_TIMEOUT_RTTS * sender.rtt
