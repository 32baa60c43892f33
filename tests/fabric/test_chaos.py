"""Fabric chaos plane: installation, edge health, rerouting, survival.

The headline robustness pins live here: with dual-homed hosts and the
edge-health monitor, flows survive a ToR crash and a WAN flap with zero
loss; with static routing the same chaos kills every affected flow; a
full core partition fails cleanly with :class:`DeliveryError` bitmaps;
and chaos that is constructed but disarmed leaves same-seed traces
byte-identical to a fault-free run.
"""

import dataclasses
import io

import pytest

from repro.common.config import ChannelConfig
from repro.common.errors import ConfigError, DeliveryError
from repro.fabric import (
    FABRIC_SCHEDULES,
    ChaosConfig,
    EdgeHealthMonitor,
    FabricNetwork,
    FabricService,
    FabricServiceConfig,
    FabricTopology,
    TenantSpec,
    chaos_scenario,
    fabric_schedule,
    install_fabric_faults,
    two_tier,
)
from repro.fabric.health import HALF_OPEN, OPEN
from repro.faults import FaultSchedule, FaultWindow, FaultyChannel
from repro.faults.inject import install_edge_faults
from repro.net.packet import Opcode, Packet
from repro.sim.engine import Simulator
from repro.telemetry import JsonlSink, Telemetry

HOST = ChannelConfig(bandwidth_bps=25e9, distance_km=0.05)
WAN = ChannelConfig(bandwidth_bps=10e9, distance_km=100.0)


def wpkt(sim, length=4096, **kw):
    return Packet(
        dst_qpn=0, opcode=Opcode.WRITE_ONLY, length=length,
        uid=sim.packet_uid(), **kw,
    )

#: Shrunk chaos run for unit-speed tests: one host per rack, same
#: geometry and cadence (4 racks, 2 cores, dual-homed hosts).
SMALL = ChaosConfig(hosts_per_tor=1)


def make_network(
    *, tors=2, hosts_per_tor=1, wan_routers=2, host_uplinks=1, telemetry=None
):
    sim = Simulator(telemetry=telemetry)
    topo = two_tier(
        tors=tors,
        hosts_per_tor=hosts_per_tor,
        host_link=HOST,
        wan_link=WAN,
        wan_routers=wan_routers,
        host_uplinks=host_uplinks,
    )
    return sim, FabricNetwork(sim, topo, seed=0)


class TestFabricSchedules:
    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown fabric chaos schedule"):
            fabric_schedule("router_meltdown", rtt=1e-3)

    def test_nonpositive_rtt_rejected(self):
        with pytest.raises(ConfigError, match="rtt"):
            fabric_schedule("tor_crash", rtt=0.0)

    def test_windows_scale_with_reference_rtt(self):
        rtt = 2e-3
        crash = fabric_schedule("tor_crash", rtt=rtt)
        assert len(crash.windows) == 1
        assert crash.windows[0].kind == "node_crash"
        assert crash.windows[0].node == "tor0"
        assert crash.windows[0].start == pytest.approx(5 * rtt)
        assert crash.windows[0].end == float("inf")

        flap = fabric_schedule("wan_flap", rtt=rtt)
        assert [w.kind for w in flap.windows] == ["edge_down", "edge_down"]
        assert all(w.edge == ("tor0", "wan0") for w in flap.windows)
        assert flap.windows[1].start == pytest.approx(30 * rtt)

    def test_partition_covers_every_core_router(self):
        part = fabric_schedule("fabric_partition", rtt=1e-3, wan_routers=3)
        assert sorted(w.node for w in part.windows) == ["wan0", "wan1", "wan2"]
        assert all(w.kind == "node_crash" for w in part.windows)

    def test_registry_names_are_stable(self):
        assert sorted(FABRIC_SCHEDULES) == [
            "fabric_partition", "tor_crash", "wan_flap",
        ]


class TestInstallFabricFaults:
    def test_node_crash_expands_to_incident_edges(self):
        _, network = make_network()
        plane = install_fabric_faults(
            network,
            FaultSchedule(
                (FaultWindow(kind="node_crash", start=0.0, node="tor0"),)
            ),
        )
        # tor0's links: its host, plus one uplink to each core router.
        assert plane.links == [
            ("h0-0", "tor0"), ("tor0", "wan0"), ("tor0", "wan1"),
        ]
        for u, v in plane.links:
            assert isinstance(network.channels[(u, v)], FaultyChannel)
            assert isinstance(network.channels[(v, u)], FaultyChannel)

    def test_edge_down_targets_one_link(self):
        _, network = make_network()
        plane = install_fabric_faults(
            network,
            FaultSchedule(
                (
                    FaultWindow(
                        kind="edge_down", start=0.0, end=1.0,
                        edge=("tor0", "wan0"),
                    ),
                )
            ),
        )
        assert plane.links == [("tor0", "wan0")]
        assert not isinstance(network.channels[("tor0", "wan1")], FaultyChannel)

    def test_windows_on_one_link_merge_sorted(self):
        _, network = make_network()
        plane = install_fabric_faults(
            network,
            FaultSchedule(
                (
                    FaultWindow(
                        kind="edge_down", start=5.0, end=6.0,
                        edge=("tor0", "wan0"),
                    ),
                    # node_crash overlaps the same physical link.
                    FaultWindow(kind="node_crash", start=1.0, end=2.0, node="wan0"),
                )
            ),
        )
        fwd, _rev = plane.wrappers[("tor0", "wan0")]
        starts = [w.start for w in fwd.schedule.windows]
        assert starts == sorted(starts) == [1.0, 5.0]

    def test_unknown_node_rejected(self):
        _, network = make_network()
        with pytest.raises(ConfigError, match="unknown node"):
            install_fabric_faults(
                network,
                FaultSchedule(
                    (FaultWindow(kind="node_crash", start=0.0, node="tor9"),)
                ),
            )

    def test_unknown_edge_rejected(self):
        _, network = make_network()
        with pytest.raises(ConfigError, match="no edge"):
            install_fabric_faults(
                network,
                FaultSchedule(
                    (
                        FaultWindow(
                            kind="edge_down", start=0.0, edge=("tor0", "tor1"),
                        ),
                    )
                ),
            )

    def test_double_install_rejected(self):
        _, network = make_network()
        schedule = FaultSchedule(
            (FaultWindow(kind="node_crash", start=0.0, node="wan0"),)
        )
        install_fabric_faults(network, schedule)
        with pytest.raises(ConfigError, match="already"):
            install_fabric_faults(network, schedule)

    def test_uninstall_restores_channels_and_is_idempotent(self):
        _, network = make_network()
        original = dict(network.channels)
        plane = install_fabric_faults(
            network,
            FaultSchedule(
                (FaultWindow(kind="node_crash", start=0.0, node="tor0"),)
            ),
        )
        assert plane.uninstall() == 3
        assert network.channels == original
        assert plane.uninstall() == 0  # second pass: nothing left to unwrap

    def test_disarmed_blackout_delivers(self):
        sim, network = make_network()
        plane = install_fabric_faults(
            network,
            FaultSchedule(
                (FaultWindow(kind="node_crash", start=0.0, node="wan0"),)
            ),
        )
        plane.disarm()
        got = []
        network.send("h0-0", "h1-0", wpkt(network.sim), got.append)
        sim.run()
        assert len(got) == 1  # the wrapper is a pure passthrough


class TestEdgeHealthMonitor:
    def test_registers_on_network(self):
        _, network = make_network()
        monitor = EdgeHealthMonitor(network)
        assert network.health is monitor
        assert monitor.excluded() == frozenset()
        assert monitor.states() == {}

    def test_unknown_edge_state_rejected(self):
        _, network = make_network()
        monitor = EdgeHealthMonitor(network)
        with pytest.raises(ConfigError, match="no edge"):
            monitor.state("tor0", "tor1")

    def test_rto_signals_counted(self):
        _, network = make_network()
        monitor = EdgeHealthMonitor(network)
        path = network.route("h0-0", "h1-0")
        monitor.note_rto(path)
        monitor.note_rto(path)
        assert monitor.summary()["rto_signals"] == 2

    def test_blackout_trips_breaker_and_reroutes(self):
        sim, network = make_network()
        monitor = EdgeHealthMonitor(network)
        assert network.route("h0-0", "h1-0") == (
            "h0-0", "tor0", "wan0", "tor1", "h1-0",
        )
        install_edge_faults(
            network, "tor0", "wan0",
            FaultSchedule((FaultWindow(kind="blackout", start=0.0),)),
        )
        # Drive enough traffic into the dead span for the EWMA to cross
        # the trip threshold (min_samples offered, all dropped).
        for i in range(32):
            sim.call_at(
                i * monitor.rtt,
                lambda: network.send("h0-0", "h1-0", wpkt(network.sim), lambda pkt: None),
            )
        sim.run()
        assert monitor.state("tor0", "wan0") in (OPEN, HALF_OPEN)
        # Tripped edge leaves the route: traffic detours over wan1.
        assert network.route("h0-0", "h1-0") == (
            "h0-0", "tor0", "wan1", "tor1", "h1-0",
        )
        assert monitor.summary()["breaker_opens"] >= 1

    def test_healthy_traffic_never_transitions(self):
        sim, network = make_network()
        monitor = EdgeHealthMonitor(network)
        for i in range(32):
            sim.call_at(
                i * monitor.rtt,
                lambda: network.send("h0-0", "h1-0", wpkt(network.sim), lambda pkt: None),
            )
        sim.run()
        assert monitor.states() == {}
        summary = monitor.summary()
        assert summary["breaker_opens"] == 0
        assert summary["edges_open"] == 0


class TestServiceDegradation:
    def _partitioned_service(self, *, window_start=0.0, deadline=0.02):
        sim, network = make_network(wan_routers=1)
        EdgeHealthMonitor(network)
        service = FabricService(
            network,
            config=FabricServiceConfig(partition_deadline=deadline),
        )
        install_fabric_faults(
            network,
            FaultSchedule(
                (
                    FaultWindow(
                        kind="node_crash", start=window_start, node="wan0",
                    ),
                )
            ),
        )
        return sim, service

    def test_partition_fails_with_bitmap(self):
        sim, service = self._partitioned_service()
        service.add_tenant(TenantSpec(name="t0"))
        ticket = service.submit("t0", "h0-0", "h1-0", 256 * 1024, at=0.0)
        sim.run()
        assert ticket.failed
        assert isinstance(ticket.error, DeliveryError)
        assert ticket.error.total_chunks == 8  # 256 KiB / 32 KiB segments
        assert ticket.error.delivered_chunks == 0
        assert ticket.error.bitmap == b"\x00"
        assert service.delivery_errors == 1
        assert service.reroute_stats()["partition_failures"] == 1

    def test_partition_mid_flow_reports_partial_bitmap(self):
        # Let a few segments cross the core before it dies (the window
        # opens while the 16-segment stream is still on the wire): the
        # bitmap must account for exactly the delivered prefix.
        sim, service = self._partitioned_service(window_start=0.6e-3)
        service.add_tenant(TenantSpec(name="t0"))
        ticket = service.submit("t0", "h0-0", "h1-0", 512 * 1024, at=0.0)
        sim.run()
        assert ticket.failed
        err = ticket.error
        assert isinstance(err, DeliveryError)
        assert 0 < err.delivered_chunks < err.total_chunks
        popcount = sum(bin(byte).count("1") for byte in err.bitmap)
        assert popcount == err.delivered_chunks

    def test_reroute_rebinds_pacer_to_new_bottleneck(self):
        # a -- sA -- {fast 10G | slow 2.5G} -- sB -- b: killing the fast
        # span must migrate the pair onto the slow one and re-anchor its
        # pacer to the new bottleneck rate.
        topo = FabricTopology()
        topo.add_host("a")
        topo.add_host("b")
        topo.add_switch("sA")
        topo.add_switch("sB")
        topo.add_switch("fast", kind="wan")
        topo.add_switch("slow", kind="wan")
        topo.add_link("a", "sA", HOST)
        topo.add_link("b", "sB", HOST)
        for core, bps in (("fast", 10e9), ("slow", 2.5e9)):
            cfg = ChannelConfig(bandwidth_bps=bps, distance_km=100.0)
            topo.add_link("sA", core, cfg)
            topo.add_link(core, "sB", cfg)
        sim = Simulator()
        network = FabricNetwork(sim, topo, seed=0)
        EdgeHealthMonitor(network)
        service = FabricService(network)
        install_fabric_faults(
            network,
            FaultSchedule(
                (FaultWindow(kind="node_crash", start=1e-3, node="fast"),)
            ),
        )
        service.add_tenant(TenantSpec(name="t0"))
        tickets = [
            service.submit("t0", "a", "b", 256 * 1024, at=i * 2e-3)
            for i in range(6)
        ]
        sim.run()
        assert all(t.completed is not None for t in tickets)
        pair = service._pairs[("a", "b")]
        assert pair.path == ("a", "sA", "slow", "sB", "b")
        assert pair.reroutes >= 1
        assert pair.pacer.controller.line_rate_bps == pytest.approx(2.5e9)
        stats = service.reroute_stats()
        assert stats["path_changes"] >= 1
        assert stats["flows_migrated"] >= 1


class TestChaosScenarios:
    def test_fault_free_baseline_completes_everything(self):
        result = chaos_scenario(dataclasses.replace(SMALL, schedule=None))
        assert result.survival == 1.0
        assert result.failed == 0
        assert result.reroute["path_changes"] == 0
        assert result.breaker_states == {}

    def test_tor_crash_survival(self):
        result = chaos_scenario(dataclasses.replace(SMALL, schedule="tor_crash"))
        assert result.survival >= 0.99
        assert result.delivery_errors == 0
        assert result.reroute["path_changes"] > 0
        assert result.reroute["flows_migrated"] > 0
        assert result.edge_health["breaker_opens"] > 0
        # The dead ToR's spans end the run non-closed.
        assert any(
            edge.startswith("tor0->") or edge.endswith("->tor0")
            for edge in result.breaker_states
        )

    def test_wan_flap_survival_and_primary_restoration(self):
        result = chaos_scenario(dataclasses.replace(SMALL, schedule="wan_flap"))
        assert result.survival >= 0.99
        assert result.delivery_errors == 0
        assert result.reroute["path_changes"] > 0
        # The span heals between flaps: half-open probes must have closed
        # the breaker again at least once.
        assert result.edge_health["breaker_half_opens"] >= 1
        assert result.edge_health["breaker_closes"] >= 1

    def test_partition_fails_cleanly_and_drains(self):
        result = chaos_scenario(
            dataclasses.replace(SMALL, schedule="fabric_partition")
        )
        assert result.delivery_errors > 0
        # Every failure is a clean partition DeliveryError, and every
        # message resolves one way or the other -- no wedged flows.
        assert result.failed == result.delivery_errors
        assert result.completed + result.failed == result.messages
        assert result.survival < 1.0

    def test_static_routing_counterfactual_loses_flows(self):
        rerouted = chaos_scenario(
            dataclasses.replace(SMALL, schedule="tor_crash")
        )
        static = chaos_scenario(
            dataclasses.replace(SMALL, schedule="tor_crash", health=False)
        )
        assert static.edge_health == {}
        assert static.survival <= 0.5  # documented near-total loss
        assert rerouted.survival >= 0.99
        assert static.reroute["path_changes"] == 0

    def test_same_seed_same_digest(self):
        config = dataclasses.replace(SMALL, schedule="tor_crash")
        first = chaos_scenario(config)
        second = chaos_scenario(config)
        assert first.digest == second.digest
        assert first.completed == second.completed
        assert first.drained_at == second.drained_at
        assert first.reroute == second.reroute

    def _traced(self, config):
        buf = io.StringIO()
        telemetry = Telemetry(trace=True, trace_sinks=[JsonlSink(buf)])
        result = chaos_scenario(config, telemetry=telemetry)
        return result, buf.getvalue()

    def test_disarmed_chaos_is_byte_identical_to_fault_free(self):
        baseline, base_trace = self._traced(
            dataclasses.replace(SMALL, schedule=None)
        )
        disarmed, disarmed_trace = self._traced(
            dataclasses.replace(SMALL, schedule="tor_crash", enabled=False)
        )
        assert base_trace  # the runs actually traced something
        assert disarmed_trace == base_trace
        assert disarmed.digest == baseline.digest
        assert disarmed.survival == 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="schedule must be one of"):
            ChaosConfig(schedule="nope")
        with pytest.raises(ConfigError, match="host"):
            ChaosConfig(hosts_per_tor=0)


def test_a_flow_finished_this_instant_is_not_migrated():
    """A breaker trips in the instant a small flow completes, before the
    service released it: the pair reroutes, and only the flow still
    sending counts as migrated."""
    sim, network = make_network()
    monitor = EdgeHealthMonitor(network)
    service = FabricService(network)
    service.add_tenant(TenantSpec(name="t"))
    small = service.submit("t", "h0-0", "h1-0", 4096)
    big = service.submit("t", "h0-0", "h1-0", 16 << 20)
    # Registered before the launch step registers the release.
    small.done.callbacks.append(
        lambda _: monitor._trip(("tor0", "wan0"), sim.now, reason="test")
    )
    sim.run()
    assert small.completed is not None and big.completed is not None
    # The big flow moves on every path change (off wan0, and back once
    # the breaker half-opens); the small one on none.
    stats = service.reroute_stats()
    assert stats["path_changes"] == 2
    assert stats["flows_migrated"] == 2
