"""Fabric fluid mode against packet mode: one booking routine, every path.

Each scenario runs the same seeded open-loop schedule through
``SimConfig(fluid=False)`` (the oracle) and ``SimConfig(fluid=True)``.
"""

import io
import math
from dataclasses import replace

import pytest

from repro.common.config import ChannelConfig
from repro.common.units import KiB, MiB
from repro.fabric import ScaleConfig, scale_scenario
from repro.fabric.health import EdgeHealthMonitor
from repro.fabric.report import per_tenant_reports
from repro.fabric.scenarios import submit_schedule
from repro.fabric.service import FabricService, FabricServiceConfig, TenantSpec
from repro.fabric.topology import FabricNetwork, two_tier
from repro.sim.engine import SimConfig, Simulator
from repro.sim.profile import SimProfiler
from repro.telemetry import JsonlSink, Telemetry
from repro.workloads.openloop import OpenLoopConfig, generate

HOST = ChannelConfig(bandwidth_bps=25e9, distance_km=0.05)
WAN = ChannelConfig(
    bandwidth_bps=100e9, distance_km=200.0,
    buffer_bytes=4 * MiB, ecn_threshold_bytes=1 * MiB,
)
LOSSY_WAN = replace(WAN, drop_probability=2e-2)

BULK = OpenLoopConfig(
    tenants=16, duration=0.006, offered_load_bps=30e9,
    mean_message_bytes=512 * KiB, max_message_bytes=2 * MiB,
)
#: The scale scenario's default sizes: nine flows in ten are one segment.
MICE = OpenLoopConfig(
    tenants=16, duration=0.004, offered_load_bps=20e9,
    mean_message_bytes=16 * KiB, max_message_bytes=512 * KiB,
)


#: Bucket quantization on an idle path: each of four hops may see up to one
#: bucket (21 us on a host link) of its own flow's bytes as queue, against
#: a ~2.8 ms cross-rack flow span.
QUANTUM = 0.03


def build(
    fluid, *, wan=WAN, service_config=None, telemetry=None, seed=3, hosts=2
):
    topo = two_tier(tors=2, hosts_per_tor=hosts, host_link=HOST, wan_link=wan)
    sim = Simulator(telemetry=telemetry, config=SimConfig(fluid=fluid))
    service = FabricService(
        FabricNetwork(sim, topo, seed=seed), config=service_config
    )
    return sim, service


def run_mix(fluid, mix, *, seed=3, **kwargs):
    """One open-loop schedule, cross-rack placement as in ``scale_scenario``."""
    sim, service = build(fluid, seed=seed, **kwargs)
    hosts = service.net.topology.hosts
    names = [f"t{t}" for t in range(mix.tenants)]
    for name in names:
        service.add_tenant(TenantSpec(name=name))
    placement = {
        t: (hosts[t % len(hosts)], hosts[(t + len(hosts) // 2) % len(hosts)])
        for t in range(mix.tenants)
    }
    submit_schedule(service, generate(mix, seed=seed), names, placement)
    sim.run()
    return sim, service


def counters(sim):
    value = sim.telemetry.metrics.value
    return value("fabric.segments_sent"), value("fabric.segments_retransmitted")


def assert_every_launch_counted_once(sim, service):
    seg = service.config.segment_bytes
    first = sum(math.ceil(t.nbytes / seg) for t in service.flows)
    sent, retx = counters(sim)
    assert sent == first + retx


def goodput(service, duration):
    return sum(r.goodput_bps for r in per_tenant_reports(service, duration))


class TestAgainstPacketMode:
    def test_bulk_mix_matches(self):
        pkt_sim, pkt = run_mix(False, BULK)
        fl_sim, fl = run_mix(True, BULK)
        assert len(fl.flows) > 20
        assert fl.completed_flows == pkt.completed_flows == len(fl.flows)
        assert counters(fl_sim)[1] == 0
        delta = abs(goodput(fl, BULK.duration) / goodput(pkt, BULK.duration) - 1)
        assert delta <= 0.01
        assert_every_launch_counted_once(pkt_sim, pkt)
        assert_every_launch_counted_once(fl_sim, fl)

    def test_lossy_core_retransmits_through_the_booking_routine(self):
        pkt_sim, pkt = run_mix(False, BULK, wan=LOSSY_WAN)
        fl_sim, fl = run_mix(True, BULK, wan=LOSSY_WAN)
        assert fl.completed_flows == pkt.completed_flows == len(fl.flows)
        retx_pkt = counters(pkt_sim)[1]
        retx_fl = counters(fl_sim)[1]
        # Each edge's loss draws come from its own stream in arrival
        # order, so both modes lose (nearly) the same number of segments.
        assert retx_pkt > 20
        assert abs(retx_fl - retx_pkt) <= max(2, 0.05 * retx_pkt)
        assert sum(t.retransmits for t in fl.flows) == retx_fl
        assert_every_launch_counted_once(pkt_sim, pkt)
        assert_every_launch_counted_once(fl_sim, fl)
        # A retransmission is a fluid_segment booking, never a relayed
        # packet: nothing reached the event-driven datapath.
        assert not fl.net._inflight
        hops = sum(c.stats.packets_offered for c in fl.net.channels.values())
        assert hops > 3 * counters(fl_sim)[0]

    def test_mice_mix_matches(self):
        pkt_sim, pkt = run_mix(False, MICE)
        fl_sim, fl = run_mix(True, MICE)
        singles = sum(t.nbytes <= fl.config.segment_bytes for t in fl.flows)
        assert singles > 0.8 * len(fl.flows) > 100
        assert fl.completed_flows == pkt.completed_flows == len(fl.flows)
        assert_every_launch_counted_once(fl_sim, fl)


    def test_congested_core_echoes_ecn(self):
        """Six 25 Gbit/s hosts into one 100 Gbit/s core edge: the ring's
        queue crosses the ECN threshold and the pair controllers hear it."""
        results = {}
        for fluid in (False, True):
            sim, service = build(fluid, hosts=6)
            service.add_tenant(TenantSpec(name="a"))
            for h in range(6):
                for _ in range(2):
                    service.submit("a", f"h0-{h}", f"h1-{h}", 2 * MiB)
            sim.run()
            value = sim.telemetry.metrics.value
            assert service.completed_flows == 12
            assert value("net.fabric.tor0->wan0.ecn_marked") > 0
            assert value("fabric.ecn_echoes") > 0
            assert_every_launch_counted_once(sim, service)
            results[fluid] = max(t.completed for t in service.flows)
        assert results[True] == pytest.approx(results[False], rel=0.05)


class TestContinuations:
    def test_bucket_debt_defers_the_booking(self):
        """A hot tenant's quota debt pushes its sends past the bookahead
        window; the booking waits for the send instant in both modes."""
        spans = {}
        for fluid in (False, True):
            sim, service = build(fluid)
            service.add_tenant(TenantSpec(name="hot", quota_bps=1e9))
            service.add_tenant(TenantSpec(name="calm"))
            hot = [
                service.submit("hot", "h0-0", "h1-0", 256 * KiB)
                for _ in range(10)
            ]
            calm = service.submit("calm", "h0-1", "h1-1", 256 * KiB)
            sim.run()
            assert all(t.completed is not None for t in hot + [calm])
            spans[fluid] = (max(t.completed for t in hot), calm.span)
            assert counters(sim)[1] == 0
        window = min(
            service.net.path_rtt("h0-0", "h1-0"),
            min(c.fluid.horizon for c in service.net.channels.values()),
        )
        # 2.5 MiB at 1 Gbit/s: ~20 ms of debt, many windows deep.
        assert spans[True][0] > 5 * window
        assert spans[True][0] == pytest.approx(spans[False][0], rel=0.01)
        assert spans[True][1] == pytest.approx(spans[False][1], rel=QUANTUM)

    def test_monitor_attached_mid_flow_finishes_eventfully(self):
        """Once a breaker could open, booked journeys are unsafe: the rest
        of the schedule leaves as packets, each segment counted once."""
        sim, service = build(True)
        service.add_tenant(TenantSpec(name="hot", quota_bps=1e9))
        ticket = service.submit("hot", "h0-0", "h1-0", 1 * MiB)
        sim.run(until=0.003)
        booked = counters(sim)[0]
        assert 0 < booked < 32
        EdgeHealthMonitor(service.net)
        sim.run()
        assert ticket.completed is not None
        assert counters(sim) == (32, 0)

    def test_qp_pool_wait_requeues(self):
        config = FabricServiceConfig(qp_pool_per_pair=1, max_flows_per_qp=1)
        done = {}
        for fluid in (False, True):
            sim, service = build(fluid, service_config=config)
            service.add_tenant(TenantSpec(name="a"))
            tickets = [
                service.submit("a", "h0-0", "h1-0", 128 * KiB) for _ in range(4)
            ]
            sim.run()
            value = sim.telemetry.metrics.value
            assert value("fabric.qp_pool_waits") == 3
            assert value("fabric.qp_pool_wait_seconds") > 0
            assert value("fabric.qps_in_use") == 0
            # One at a time: each flow starts when the previous completed.
            for prev, nxt in zip(tickets, tickets[1:]):
                assert nxt.started == prev.completed
            done[fluid] = tickets[-1].completed
        assert done[True] == pytest.approx(done[False], rel=QUANTUM)

    def test_ring_shifts_and_restarts_under_a_long_run(self):
        """Bookings spanning several ring lengths, then an idle gap wider
        than the ring: the late flow meets an empty, not a stale, edge."""
        sim, service = build(True)
        service.add_tenant(TenantSpec(name="a"))
        core = service.net.channels[("tor0", "wan0")].fluid
        span = 4 * core.horizon  # the horizon is a quarter of the ring
        first = service.submit("a", "h0-0", "h1-0", 256 * KiB)
        steady = [
            service.submit("a", "h0-0", "h1-0", 256 * KiB, at=i * span / 8)
            for i in range(1, 24)
        ]
        sim.run()
        assert core._t0 > span  # shifted, keeping 3/4 of its history
        t0 = core._t0
        late = service.submit("a", "h0-0", "h1-0", 256 * KiB, at=sim.now + 3 * span)
        sim.run()
        assert core._t0 - t0 >= span  # whole window replaced
        assert all(t.completed is not None for t in steady)
        assert late.span == pytest.approx(first.span, rel=QUANTUM)


class TestDeterminism:
    @pytest.mark.parametrize(
        "mix, wan", [(BULK, LOSSY_WAN), (MICE, WAN)], ids=["lossy", "mice"]
    )
    def test_same_seed_same_registry_and_trace(self, mix, wan):
        runs = []
        for _ in range(2):
            buf = io.StringIO()
            telemetry = Telemetry(trace=True, trace_sinks=[JsonlSink(buf)])
            sim, _service = run_mix(True, mix, wan=wan, telemetry=telemetry)
            runs.append((telemetry.metrics.snapshot(), buf.getvalue()))
        assert runs[0][1].count("fluid_segment") > 100
        assert runs[0] == runs[1]


def test_fluid_mode_books_10x_fewer_events_per_sim_second():
    """The fast path's event diet, counted by the profiler on a bulk-heavy
    scale mix: fluid mode books >= 10x fewer heap events per simulated
    second than packet mode (each remaining event carries a whole
    vectorized segment; 7.4k against 842k at seed 0).  Attribution names
    the simulation code, not the engine -- the ``call_at`` ``__wrapped__``
    tagging regression."""
    config = ScaleConfig(
        tenants=200, duration=0.02, offered_load_bps=120e9, tors=4,
        hosts_per_tor=4, mean_message_bytes=8 * MiB,
        max_message_bytes=32 * MiB,
    )

    def profiled(fluid):
        profiler = SimProfiler()
        result = scale_scenario(
            replace(config, fluid=fluid), telemetry=Telemetry(profiler=profiler)
        )
        assert result.completed + result.failed == result.messages
        report = profiler.report()
        assert report["events"] > 0 and report["sim_seconds"] > 0
        return report

    pkt, fluid = profiled(False), profiled(True)
    pkt_density = pkt["events"] / pkt["sim_seconds"]
    fluid_density = fluid["events"] / fluid["sim_seconds"]
    assert fluid_density * 10.0 <= pkt_density, (fluid_density, pkt_density)
    names = " ".join(c["category"] for c in fluid["categories"][:12])
    assert "repro." in names, names


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pinned_bulk_mix_is_faithful(seed):
    """The faithfulness half of the fabric fast-path gate (its speed half
    is the claim row ``fabric_scale_fluid_speedup``)."""
    config = ScaleConfig(
        tenants=200, duration=0.02, offered_load_bps=120e9, tors=4,
        hosts_per_tor=4, mean_message_bytes=8 * MiB,
        max_message_bytes=32 * MiB, seed=seed,
    )
    pkt = scale_scenario(config)
    fl = scale_scenario(replace(config, fluid=True))
    again = scale_scenario(replace(config, fluid=True))

    def total(result):
        return sum(r.goodput_bps for r in result.reports)

    assert fl.completed == pkt.completed and fl.failed == pkt.failed == 0
    assert sum(r.retransmits for r in fl.reports) == 0
    assert abs(total(fl) / total(pkt) - 1) <= 0.01
    assert fl.digest == again.digest


def test_a_failed_flow_books_no_further_tranche():
    """A 256 MiB flow is booked a window at a time; its first lost segment
    exhausts ``max_attempts=1`` long before its last send, and the next
    tranche's continuation finds the flow failed and books nothing."""
    sim, service = build(
        True, wan=replace(WAN, drop_probability=0.5),
        service_config=FabricServiceConfig(max_attempts=1),
    )
    service.add_tenant(TenantSpec(name="t"))
    ticket = service.submit("t", "h0-0", "h1-0", 256 * MiB)
    sim.run()
    assert ticket.failed
    sent, _ = counters(sim)
    assert 0 < sent < 256 * MiB // service.config.segment_bytes
