"""FabricService: tenancy, QP pooling, admission, reliability."""

import pytest

from repro.common.config import ChannelConfig
from repro.common.errors import ConfigError
from repro.common.units import KiB
from repro.fabric.health import EdgeHealthMonitor
from repro.fabric.service import (
    FabricService,
    FabricServiceConfig,
    TenantSpec,
)
from repro.fabric.topology import FabricNetwork, dumbbell
from repro.net.loss import BernoulliLoss, LossModel
from repro.sim.engine import Simulator

HOST = ChannelConfig(bandwidth_bps=25e9, distance_km=0.05)
WAN = ChannelConfig(bandwidth_bps=10e9, distance_km=50.0)


class BlackHole(LossModel):
    """Drops every packet (BernoulliLoss rejects p=1.0)."""

    def drops(self, rng, size_bytes):
        return True


def make_service(service_config=None, *, loss=None, left=2):
    topo = dumbbell(
        left_hosts=left, right_hosts=1, host_link=HOST, bottleneck=WAN
    )
    if loss is not None:
        # Rebuild the bottleneck edges with loss (construction-time knob).
        topo.edges[("torL", "torR")] = topo.edges[("torL", "torR")].__class__(
            "torL", "torR", WAN, loss
        )
    sim = Simulator()
    net = FabricNetwork(sim, topo)
    service = FabricService(net, config=service_config)
    return sim, service


class TestTenancy:
    def test_register_and_duplicate(self):
        sim, service = make_service()
        service.add_tenant(TenantSpec(name="a", quota_bps=1e9))
        with pytest.raises(ConfigError):
            service.add_tenant(TenantSpec(name="a"))
        with pytest.raises(ConfigError):
            service.submit("nobody", "hL0", "hR0", 4096)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="")
        with pytest.raises(ConfigError):
            TenantSpec(name="a", quota_bps=0.0)
        with pytest.raises(ConfigError):
            TenantSpec(name="a", burst_bytes=0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FabricServiceConfig(cc="bogus")
        with pytest.raises(ConfigError):
            FabricServiceConfig(qp_pool_per_pair=0)
        with pytest.raises(ConfigError):
            FabricServiceConfig(max_flows_per_qp=0)
        with pytest.raises(ConfigError):
            FabricServiceConfig(max_attempts=0)


class TestFlows:
    def test_single_flow_completes(self):
        sim, service = make_service()
        service.add_tenant(TenantSpec(name="a"))
        ticket = service.submit("a", "hL0", "hR0", 256 * KiB)
        sim.run()
        assert ticket.completed is not None
        assert not ticket.failed
        assert ticket.span > service.net.path_rtt("hL0", "hR0")
        state = service.tenants["a"]
        assert state.bytes_acked == 256 * KiB
        assert state.flows_completed == 1

    def test_submit_at_future_time(self):
        sim, service = make_service()
        service.add_tenant(TenantSpec(name="a"))
        ticket = service.submit("a", "hL0", "hR0", 4096, at=1e-3)
        sim.run()
        assert ticket.submitted == 1e-3
        assert ticket.started >= 1e-3
        with pytest.raises(ConfigError):
            service.submit("a", "hL0", "hR0", 4096, at=-1.0)
        with pytest.raises(ConfigError):
            service.submit("a", "hL0", "hR0", 0)

    def test_metrics_accounting(self):
        sim, service = make_service()
        service.add_tenant(TenantSpec(name="a"))
        for _ in range(3):
            service.submit("a", "hL0", "hR0", 64 * KiB)
        sim.run()
        m = sim.telemetry.metrics
        assert m.value("fabric.flows_submitted") == 3
        assert m.value("fabric.flows_completed") == 3
        assert m.value("fabric.bytes_acked") == 3 * 64 * KiB
        assert m.value("fabric.segments_sent") >= 3 * 2  # 64K / 32K segs
        assert m.value("fabric.qps_in_use") == 0  # all released

    def test_quota_throttles_noncompliant_tenant(self):
        # A non-compliant tenant ignores cc but cannot ignore its bucket:
        # 20 x 64 KiB at a 1 Gbit/s quota needs ~10 ms, far above the
        # unthrottled drain time.
        cfg = FabricServiceConfig(cc="none")
        sim, service = make_service(cfg)
        service.add_tenant(
            TenantSpec(name="hog", quota_bps=1e9, compliant=False)
        )
        for _ in range(20):
            service.submit("hog", "hL0", "hR0", 64 * KiB)
        sim.run()
        offered_bits = 20 * 64 * KiB * 8
        assert sim.now >= offered_bits / 1e9 * 0.8
        assert service.tenants["hog"].flows_completed == 20

    def test_unenforced_quota_is_ignored(self):
        cfg = FabricServiceConfig(cc="none", enforce_quotas=False)
        sim, service = make_service(cfg)
        service.add_tenant(
            TenantSpec(name="hog", quota_bps=1e9, compliant=False)
        )
        for _ in range(20):
            service.submit("hog", "hL0", "hR0", 64 * KiB)
        sim.run()
        # Only line rates bound the drain now: well under the quota time.
        offered_bits = 20 * 64 * KiB * 8
        assert sim.now < offered_bits / 1e9 * 0.8


class TestQpPool:
    def test_pool_bounds_concurrency(self):
        cfg = FabricServiceConfig(
            cc="none", qp_pool_per_pair=1, max_flows_per_qp=2
        )
        sim, service = make_service(cfg)
        service.add_tenant(TenantSpec(name="a"))
        tickets = [
            service.submit("a", "hL0", "hR0", 32 * KiB) for _ in range(6)
        ]
        sim.run()
        assert all(t.completed is not None for t in tickets)
        m = sim.telemetry.metrics
        # 6 flows through 2 slots: at least 4 had to wait for the pool.
        assert m.value("fabric.qp_pool_waits") >= 4
        assert m.value("fabric.qp_pool_wait_seconds") > 0

    def test_pool_wide_enough_never_waits(self):
        cfg = FabricServiceConfig(
            cc="none", qp_pool_per_pair=2, max_flows_per_qp=8
        )
        sim, service = make_service(cfg)
        service.add_tenant(TenantSpec(name="a"))
        for _ in range(6):
            service.submit("a", "hL0", "hR0", 32 * KiB)
        sim.run()
        assert sim.telemetry.metrics.value("fabric.qp_pool_waits") == 0


class TestReliability:
    def test_loss_recovered_by_rto(self):
        sim, service = make_service(loss=BernoulliLoss(0.2))
        service.add_tenant(TenantSpec(name="a"))
        tickets = [
            service.submit("a", "hL0", "hR0", 128 * KiB) for _ in range(8)
        ]
        sim.run()
        assert all(t.completed is not None for t in tickets)
        m = sim.telemetry.metrics
        assert m.value("fabric.segments_retransmitted") > 0
        assert service.tenants["a"].bytes_acked == 8 * 128 * KiB

    def test_hopeless_loss_fails_cleanly(self):
        sim, service = make_service(
            FabricServiceConfig(max_attempts=3), loss=BlackHole()
        )
        service.add_tenant(TenantSpec(name="a"))
        ticket = service.submit("a", "hL0", "hR0", 4096)
        sim.run()  # must drain: bounded attempts, clean failure
        assert ticket.failed
        assert ticket.completed is None
        assert service.tenants["a"].flows_failed == 1
        assert sim.telemetry.metrics.value("fabric.flows_failed") == 1

    def test_ecn_echo_reaches_controller(self):
        # Tight ECN threshold at the bottleneck + an unpaced compliant
        # burst (cc="none"): the 25G uplink overruns the 10G bottleneck,
        # the backlog crosses the mark threshold, and the echoed CE bits
        # must reach the service's signal path.
        topo = dumbbell(
            left_hosts=1,
            right_hosts=1,
            host_link=HOST,
            bottleneck=ChannelConfig(
                bandwidth_bps=10e9, distance_km=50.0,
                ecn_threshold_bytes=32 * KiB,
            ),
        )
        sim = Simulator()
        service = FabricService(
            FabricNetwork(sim, topo), config=FabricServiceConfig(cc="none")
        )
        service.add_tenant(TenantSpec(name="a"))
        for _ in range(8):
            service.submit("a", "hL0", "hR0", 128 * KiB)
        sim.run()
        assert sim.telemetry.metrics.value("fabric.ecn_echoes") > 0


class TestDeterminism:
    def run_digest(self, seed):
        from repro.fabric.report import metrics_digest

        topo = dumbbell(
            left_hosts=2, right_hosts=1, host_link=HOST, bottleneck=WAN
        )
        sim = Simulator()
        net = FabricNetwork(sim, topo, seed=seed)
        service = FabricService(net)
        service.add_tenant(TenantSpec(name="a", quota_bps=5e9))
        service.add_tenant(TenantSpec(name="b", quota_bps=5e9))
        for i in range(40):
            service.submit(
                "a" if i % 2 == 0 else "b",
                "hL0" if i % 2 == 0 else "hL1",
                "hR0",
                (16 + (i * 7) % 64) * KiB,
                at=i * 20e-6,
            )
        sim.run()
        return metrics_digest(sim.telemetry.metrics)

    def test_same_seed_byte_identical_metrics(self):
        assert self.run_digest(0) == self.run_digest(0)

    def test_seed_changes_nothing_without_randomness(self):
        # This scenario has no loss/jitter, so metrics must not depend on
        # the seed at all -- catching accidental RNG coupling.
        assert self.run_digest(0) == self.run_digest(1)

class TestAcksWithoutAReverseRoute:
    def test_an_unfinished_flow_has_no_span(self):
        sim, service = make_service()
        service.add_tenant(TenantSpec(name="a"))
        ticket = service.submit("a", "hL0", "hR0", 64 * KiB)
        assert ticket.span is None
        sim.run()
        assert ticket.span > 0

    def test_segments_delivered_while_the_reverse_edge_is_open_are_not_acked(
        self,
    ):
        """The flow is admitted, then only the reverse bottleneck edge's
        breaker opens: data still reaches hR0, but no ACK route leads
        back, so nothing is acked until that breaker half-opens, and the
        sender's RTOs carry the flow until then."""
        sim, service = make_service()
        monitor = EdgeHealthMonitor(service.net)
        reverse = ("torR", "torL")
        service.add_tenant(TenantSpec(name="a"))
        ticket = service.submit("a", "hL0", "hR0", 64 * KiB)
        sim.run(until=1e-5)  # admitted, its first segments on the wire
        assert ticket.started is not None
        monitor._trip(reverse, sim.now, reason="reverse only")
        reopen_at = monitor.breakers[reverse].reopen_at
        sim.run()
        assert not ticket.failed
        assert ticket.completed > reopen_at
        assert service.tenants["a"].retransmits > 0
