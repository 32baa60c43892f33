"""Fabric topology graph: construction, routing, network instantiation."""

import numpy as np
import pytest

from repro.common.config import ChannelConfig
from repro.common.errors import ConfigError
from repro.fabric.topology import (
    FabricNetwork,
    FabricTopology,
    dumbbell,
    two_tier,
)
from repro.net.channel import Channel
from repro.net.packet import Opcode, Packet
from repro.sim.engine import Simulator

HOST = ChannelConfig(bandwidth_bps=25e9, distance_km=0.05)
WAN = ChannelConfig(bandwidth_bps=10e9, distance_km=100.0)


def wpkt(sim, length=4096, **kw):
    return Packet(
        dst_qpn=0, opcode=Opcode.WRITE_ONLY, length=length,
        uid=sim.packet_uid(), **kw,
    )


class TestTopology:
    def test_dumbbell_shape(self):
        topo = dumbbell(
            left_hosts=2, right_hosts=3, host_link=HOST, bottleneck=WAN
        )
        assert topo.hosts == ["hL0", "hL1", "hR0", "hR1", "hR2"]
        assert topo.nodes["torL"].kind == "tor"
        # Both directed edges of every link exist.
        assert ("torL", "torR") in topo.edges
        assert ("torR", "torL") in topo.edges
        assert topo.edge("hL0", "torL").config is HOST

    def test_two_tier_shape(self):
        topo = two_tier(tors=2, hosts_per_tor=2, host_link=HOST, wan_link=WAN)
        assert topo.hosts == ["h0-0", "h0-1", "h1-0", "h1-1"]
        assert topo.nodes["wan0"].kind == "wan"
        assert ("tor0", "wan0") in topo.edges

    def test_validation(self):
        topo = FabricTopology()
        topo.add_host("a")
        topo.add_host("b")
        with pytest.raises(ConfigError):
            topo.add_host("a")  # duplicate
        with pytest.raises(ConfigError):
            topo.add_link("a", "missing", HOST)
        with pytest.raises(ConfigError):
            topo.add_link("a", "a", HOST)
        topo.add_link("a", "b", HOST)
        with pytest.raises(ConfigError):
            topo.add_link("b", "a", HOST)  # already linked
        with pytest.raises(ConfigError):
            topo.add_switch("s", kind="host")


class TestRouting:
    def test_dumbbell_route(self):
        topo = dumbbell(
            left_hosts=2, right_hosts=1, host_link=HOST, bottleneck=WAN
        )
        assert topo.shortest_path("hL0", "hR0") == (
            "hL0", "torL", "torR", "hR0"
        )

    def test_two_tier_routes(self):
        topo = two_tier(tors=2, hosts_per_tor=2, host_link=HOST, wan_link=WAN)
        # Intra-rack stays under the ToR; inter-rack crosses the core.
        assert topo.shortest_path("h0-0", "h0-1") == ("h0-0", "tor0", "h0-1")
        assert topo.shortest_path("h0-0", "h1-1") == (
            "h0-0", "tor0", "wan0", "tor1", "h1-1"
        )

    def test_hosts_never_transit(self):
        # a -- b -- c where b is a host: no a->c route even though the
        # graph is connected through b.
        topo = FabricTopology()
        topo.add_host("a")
        topo.add_host("b")
        topo.add_host("c")
        topo.add_link("a", "b", HOST)
        topo.add_link("b", "c", HOST)
        with pytest.raises(ConfigError):
            topo.shortest_path("a", "c")

    def test_cost_prefers_fast_path(self):
        # Two routes tor0->tor1: direct WAN (slow/long) vs via tor2 with
        # two short fast links; Dijkstra must take the cheaper pair.
        fast = ChannelConfig(bandwidth_bps=100e9, distance_km=1.0)
        slow = ChannelConfig(bandwidth_bps=10e9, distance_km=1000.0)
        topo = FabricTopology()
        for name in ("tor0", "tor1", "tor2"):
            topo.add_switch(name)
        topo.add_host("h0")
        topo.add_host("h1")
        topo.add_link("h0", "tor0", HOST)
        topo.add_link("h1", "tor1", HOST)
        topo.add_link("tor0", "tor1", slow)
        topo.add_link("tor0", "tor2", fast)
        topo.add_link("tor2", "tor1", fast)
        assert topo.shortest_path("h0", "h1") == (
            "h0", "tor0", "tor2", "tor1", "h1"
        )

    def test_route_validation(self):
        topo = dumbbell(
            left_hosts=1, right_hosts=1, host_link=HOST, bottleneck=WAN
        )
        with pytest.raises(ConfigError):
            topo.shortest_path("hL0", "hL0")
        with pytest.raises(ConfigError):
            topo.shortest_path("hL0", "nope")


class TestNetwork:
    def make(self):
        topo = dumbbell(
            left_hosts=2, right_hosts=1, host_link=HOST, bottleneck=WAN
        )
        sim = Simulator()
        return sim, FabricNetwork(sim, topo)

    def test_end_to_end_delivery(self):
        sim, net = self.make()
        got = []
        net.send("hL0", "hR0", wpkt(net.sim), lambda p: got.append((sim.now, p)))
        sim.run()
        assert len(got) == 1
        # Store-and-forward: at least the sum of per-hop costs.
        assert got[0][0] >= net.path_one_way_delay("hL0", "hR0")
        assert net.inflight_count == 0

    def test_path_properties(self):
        sim, net = self.make()
        assert net.bottleneck_bps("hL0", "hR0") == 10e9
        assert net.uplink_bps("hL0") == 25e9
        rtt = net.path_rtt("hL0", "hR0")
        assert rtt == pytest.approx(
            2 * net.path_one_way_delay("hL0", "hR0")
        )
        assert rtt > 2 * WAN.one_way_delay  # includes host hops

    def test_shared_edge_contention(self):
        # Packets from both left hosts cross the same torL->torR channel:
        # the second flow's packets queue behind the first's.
        sim, net = self.make()
        times = {"hL0": [], "hL1": []}
        n = 8
        for i in range(n):
            net.send("hL0", "hR0", wpkt(net.sim), lambda p, h="hL0": times[h].append(sim.now))
            net.send("hL1", "hR0", wpkt(net.sim), lambda p, h="hL1": times[h].append(sim.now))
        sim.run()
        assert len(times["hL0"]) == len(times["hL1"]) == n
        all_times = sorted(times["hL0"] + times["hL1"])
        ser = 4096 / (10e9 / 8)
        # 16 packets through one 10G bottleneck: FIFO spacing at its rate.
        deltas = [b - a for a, b in zip(all_times, all_times[1:])]
        assert min(deltas) == pytest.approx(ser, rel=1e-6)

    def test_abandon_suppresses_delivery(self):
        sim, net = self.make()
        got = []
        p = wpkt(net.sim)
        net.send("hL0", "hR0", p, lambda pkt: got.append(pkt))
        net.abandon(p.uid)
        sim.run()
        assert got == []
        assert net.inflight_count == 0

    def test_ce_accumulates_across_hops(self):
        # Tight ECN threshold on the bottleneck: burst packets pick up CE
        # there and still carry it at final delivery.
        topo = dumbbell(
            left_hosts=1,
            right_hosts=1,
            host_link=HOST,
            bottleneck=ChannelConfig(
                bandwidth_bps=10e9, distance_km=100.0,
                ecn_threshold_bytes=2 * 4096,
            ),
        )
        sim = Simulator()
        net = FabricNetwork(sim, topo)
        got = []
        for _ in range(8):
            net.send("hL0", "hR0", wpkt(net.sim), lambda p: got.append(p.ce))
        sim.run()
        assert any(got)

    def test_same_seed_same_channels(self):
        # Per-edge RNG substreams: two networks from the same seed behave
        # identically under loss.
        from repro.net.loss import BernoulliLoss

        def run(seed):
            topo = FabricTopology()
            topo.add_host("a")
            topo.add_host("b")
            topo.add_switch("t")
            topo.add_link("a", "t", HOST)
            topo.add_link(
                "t", "b", WAN, loss_fwd=BernoulliLoss(0.3),
                loss_rev=BernoulliLoss(0.3),
            )
            sim = Simulator()
            net = FabricNetwork(sim, topo, seed=seed)
            got = []
            for i in range(200):
                net.send("a", "b", wpkt(net.sim), lambda p: got.append(p.uid))
            sim.run()
            return got

        # Packet uids come from the simulator, so the second run in this
        # process sees the very uids the first did.
        a, b = run(0), run(0)
        assert a == b
        assert 0 < len(a) < 200  # loss actually happened, deterministically

class TestRedundantShapes:
    def test_wan_routers_mesh_every_tor(self):
        topo = two_tier(
            tors=2, hosts_per_tor=1, host_link=HOST, wan_link=WAN,
            wan_routers=3,
        )
        for t in range(2):
            for w in range(3):
                assert (f"tor{t}", f"wan{w}") in topo.edges
        # Lexicographic tie-break keeps wan0 the default core.
        assert topo.shortest_path("h0-0", "h1-0") == (
            "h0-0", "tor0", "wan0", "tor1", "h1-0"
        )

    def test_host_uplinks_multi_home_consecutive_tors(self):
        topo = two_tier(
            tors=3, hosts_per_tor=1, host_link=HOST, wan_link=WAN,
            host_uplinks=2,
        )
        # h1-0 homes to tor1 and tor2 (consecutive, mod tors).
        assert topo.neighbors("h1-0") == ["tor1", "tor2"]
        assert topo.neighbors("h2-0") == ["tor0", "tor2"]  # wraps

    def test_defaults_keep_historical_shape(self):
        single = two_tier(
            tors=2, hosts_per_tor=2, host_link=HOST, wan_link=WAN
        )
        knobbed = two_tier(
            tors=2, hosts_per_tor=2, host_link=HOST, wan_link=WAN,
            wan_routers=1, host_uplinks=1,
        )
        assert sorted(single.edges) == sorted(knobbed.edges)

    def test_redundancy_validation(self):
        with pytest.raises(ConfigError, match="WAN router"):
            two_tier(
                tors=2, hosts_per_tor=1, host_link=HOST, wan_link=WAN,
                wan_routers=0,
            )
        with pytest.raises(ConfigError, match="host_uplinks"):
            two_tier(
                tors=2, hosts_per_tor=1, host_link=HOST, wan_link=WAN,
                host_uplinks=3,
            )


class TestRouteCacheAndExclusion:
    def make(self):
        topo = two_tier(
            tors=2, hosts_per_tor=1, host_link=HOST, wan_link=WAN,
            wan_routers=2,
        )
        sim = Simulator()
        return sim, FabricNetwork(sim, topo)

    def test_exclude_detours_and_exhausts(self):
        _, net = self.make()
        topo = net.topology
        primary = topo.shortest_path("h0-0", "h1-0")
        assert primary == ("h0-0", "tor0", "wan0", "tor1", "h1-0")
        detour = topo.shortest_path(
            "h0-0", "h1-0", exclude=frozenset({("tor0", "wan0")})
        )
        assert detour == ("h0-0", "tor0", "wan1", "tor1", "h1-0")
        with pytest.raises(ConfigError, match="no route"):
            topo.shortest_path(
                "h0-0", "h1-0",
                exclude=frozenset({("tor0", "wan0"), ("tor0", "wan1")}),
            )

    def test_invalidate_routes_drops_cache(self):
        _, net = self.make()
        path = net.route("h0-0", "h1-0")
        assert net._routes[("h0-0", "h1-0")] == path  # fill-only cache
        net.invalidate_routes()
        assert net._routes == {}
        assert net.route("h0-0", "h1-0") == path  # recomputed, same graph

    def test_routes_changed_notifies_listeners(self):
        _, net = self.make()
        net.route("h0-0", "h1-0")
        fired = []
        net.add_route_listener(lambda: fired.append(len(net._routes)))
        net.routes_changed()
        net.routes_changed()
        # Listeners run after invalidation (they re-resolve fresh paths).
        assert fired == [0, 0]


class TestRefusalsAndEligibility:
    def test_an_unknown_edge_is_refused(self):
        topo = dumbbell(left_hosts=1, right_hosts=1, host_link=HOST, bottleneck=WAN)
        with pytest.raises(ConfigError, match="no edge 'hL0' -> 'hR0'"):
            topo.edge("hL0", "hR0")

    def test_empty_shapes_are_refused(self):
        with pytest.raises(ConfigError, match="dumbbell needs"):
            dumbbell(left_hosts=0, right_hosts=1, host_link=HOST, bottleneck=WAN)
        with pytest.raises(ConfigError, match="two_tier needs"):
            two_tier(tors=2, hosts_per_tor=0, host_link=HOST, wan_link=WAN)

    def test_a_costlier_second_way_to_a_switch_is_not_expanded(self):
        """s1 is queued twice (via s0 at 200 km, via s2 at 150 km) and
        popped twice before h1: the costlier copy is skipped."""
        topo = FabricTopology()
        for name in ("s0", "s1", "s2"):
            topo.add_switch(name)
        topo.add_host("h0")
        topo.add_host("h1")

        def km(distance):
            return ChannelConfig(bandwidth_bps=100e9, distance_km=distance)

        topo.add_link("h0", "s0", km(1.0))
        topo.add_link("s0", "s1", km(200.0))
        topo.add_link("s0", "s2", km(100.0))
        topo.add_link("s2", "s1", km(50.0))
        topo.add_link("s1", "h1", km(100.0))
        assert topo.shortest_path("h0", "h1") == ("h0", "s0", "s2", "s1", "h1")

    def test_a_packet_without_a_uid_is_refused(self):
        topo = dumbbell(left_hosts=1, right_hosts=1, host_link=HOST, bottleneck=WAN)
        sim = Simulator()
        net = FabricNetwork(sim, topo)
        packet = Packet(dst_qpn=0, opcode=Opcode.WRITE_ONLY, length=64)
        with pytest.raises(ConfigError, match="no uid"):
            net.send("hL0", "hR0", packet, lambda p: None)
        assert net.inflight_count == 0

    def test_only_plain_steady_channels_are_booked_fluidly(self):
        jittery = ChannelConfig(
            bandwidth_bps=10e9, distance_km=50.0, jitter_fraction=0.1
        )
        plain = dumbbell(left_hosts=1, right_hosts=1, host_link=HOST, bottleneck=WAN)
        net = FabricNetwork(Simulator(), plain)
        path = net.route("hL0", "hR0")
        assert net.fluid_plan(path) is not None

        class Wrapper(Channel):
            pass

        old = net.channels[("torL", "torR")]
        net.replace_channel(("torL", "torR"), Wrapper(
            net.sim, old.config, rng=np.random.default_rng(0)
        ))
        assert not net.fluid_path_eligible(path)

        shaky = dumbbell(
            left_hosts=1, right_hosts=1, host_link=HOST, bottleneck=jittery
        )
        net = FabricNetwork(Simulator(), shaky)
        assert net.fluid_plan(net.route("hL0", "hR0")) is None
