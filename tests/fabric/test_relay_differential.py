"""Differential test: the hop-tuple relay against the per-hop lookup.

``ParentNetwork`` carries ``FabricNetwork.send`` and ``_on_edge_delivery``
as they stood before the relay indexed a per-path channel tuple: each
edge's sink was a lambda passing its ``(node, nxt)`` key, and every hop
looked its channel up in ``channels`` by a freshly built ``(node, nxt)``
key.  It is kept here as the reference.

Hypothesis draws the edge profiles (jitter, in-network duplication, wire
loss) and a run of operations at drawn instants: launches between host
pairs, RTO abandons of earlier launches, reroutes (edges excluded or
restored, then the route cache invalidated) and fault wrappers installed
or removed while packets are in flight.  Both networks must deliver the
same packets at the same instants in the same order -- so drop the same
stale and duplicate copies -- and leave the same counters, gauges, trace
records, channel RNG states and in-flight set.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ChannelConfig
from repro.common.errors import ConfigError
from repro.fabric.topology import FabricNetwork, _Transit, two_tier
from repro.faults import FaultSchedule, FaultWindow
from repro.faults.inject import install_edge_faults
from repro.net.packet import Opcode, Packet
from repro.sim.engine import Simulator
from repro.telemetry import RingBufferSink, Telemetry


class ParentNetwork(FabricNetwork):
    """``send`` and ``_on_edge_delivery`` before the hop tuples, verbatim."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for (a, b), channel in self.channels.items():
            channel.attach_sink(
                lambda packet, hop_key=(a, b): self._on_edge_delivery(
                    hop_key, packet
                )
            )

    def send(self, src, dst, packet, on_deliver):
        if self.health is not None:
            self.health.on_datapath(self.sim.now)
        if packet.uid is None:
            raise ConfigError("packet has no uid to track it by")
        path = self.route(src, dst)
        self._inflight[packet.uid] = _Transit(path, 0, on_deliver)
        self.channels[(path[0], path[1])].transmit(packet)
        return path

    def _on_edge_delivery(self, hop_key, packet):
        transit = self._inflight.get(packet.uid)
        if transit is None:
            return  # abandoned (stale attempt) or duplicated copy
        node = transit.path[transit.hop + 1]
        if hop_key[1] != node:
            return  # duplicate from an earlier hop; the fresh copy leads
        if node == transit.path[-1]:
            del self._inflight[packet.uid]
            transit.on_deliver(packet)
            return
        transit.hop += 1
        nxt = transit.path[transit.hop + 1]
        self.channels[(node, nxt)].transmit(packet)


class _Exclusions:
    """The slice of an edge-health monitor routing reads: an excluded set."""

    def __init__(self):
        self.edges = frozenset()

    def excluded(self):
        return self.edges

    def on_datapath(self, now):
        pass


#: Reroutes switch among these excluded sets; the last cuts tor0 off.
EXCLUSIONS = (
    frozenset(),
    frozenset({("tor0", "wan0")}),
    frozenset({("wan0", "tor1"), ("tor1", "wan0")}),
    frozenset({("tor0", "wan0"), ("tor0", "wan1")}),
)
#: Links a fault op wraps (or unwraps), and the fault it installs.
FAULT_EDGES = (("tor0", "wan0"), ("wan0", "tor1"), ("h0-0", "tor0"))
FAULTS = (
    FaultWindow(kind="blackout", start=0.0),
    FaultWindow(kind="brownout", start=0.0, drop_probability=0.5),
    FaultWindow(kind="duplicate", start=0.0, duplicate_probability=0.5),
)


def _unfault(network, u: str, v: str) -> None:
    """Take ``install_edge_faults`` off the ``u`` <-> ``v`` edge: each
    direction's inner channel is re-bound with its own loss model and sink."""
    for key in ((u, v), (v, u)):
        wrapper = network.channels[key]
        inner = wrapper.inner
        inner.loss = inner.loss.base
        inner.attach_sink(wrapper._downstream)
        network.replace_channel(key, inner)


def _network(cls, host: ChannelConfig, wan: ChannelConfig, seed: int):
    ring = RingBufferSink(capacity=1 << 16)
    sim = Simulator(telemetry=Telemetry(trace=True, trace_sinks=[ring]))
    topo = two_tier(
        tors=2, hosts_per_tor=2, host_link=host, wan_link=wan, wan_routers=2
    )
    network = cls(sim, topo, seed=seed)
    network.set_health(_Exclusions())
    return sim, network, ring


def _run(cls, host, wan, seed, ops):
    """Drive ``ops`` on a fresh ``cls`` network; everything observable."""
    sim, network, ring = _network(cls, host, wan, seed)
    hosts = network.topology.hosts
    sent: list[int] = []
    got: list[tuple] = []
    launched: list = []
    faulted: set = set()

    def launch(k):
        src = hosts[k % len(hosts)]
        dst = hosts[(k // len(hosts)) % len(hosts)]
        if dst == src:
            dst = hosts[(k + 1) % len(hosts)]
        packet = Packet(
            dst_qpn=0, opcode=Opcode.WRITE_ONLY, length=1024 + 512 * (k % 8),
            msg_seq=len(sent), pkt_idx=0, chunk=0, attempt=0,
            uid=sim.packet_uid(),
        )
        sent.append(packet.uid)
        try:
            launched.append(network.send(
                src, dst, packet,
                lambda pkt: got.append((sim.now, pkt.uid, pkt.ce)),
            ))
        except ConfigError:
            launched.append(None)

    def abandon(k):
        if sent:
            network.abandon(sent[k % len(sent)])

    def reroute(k):
        network.health.edges = EXCLUSIONS[k % len(EXCLUSIONS)]
        network.invalidate_routes()

    def fault(k):
        u, v = FAULT_EDGES[k % len(FAULT_EDGES)]
        if (u, v) in faulted:
            faulted.discard((u, v))
            _unfault(network, u, v)
        else:
            faulted.add((u, v))
            window = FAULTS[(k // len(FAULT_EDGES)) % len(FAULTS)]
            install_edge_faults(network, u, v, FaultSchedule((window,)))

    do = {"send": launch, "abandon": abandon, "reroute": reroute, "fault": fault}
    for at, kind, k in ops:
        sim.call_at(at, do[kind], k)
    sim.run()
    channels = {
        key: getattr(ch, "inner", ch) for key, ch in network.channels.items()
    }
    return {
        "got": got,
        "launched": launched,
        "now": sim.now,
        "inflight": sorted(network._inflight),
        "metrics": sim.telemetry.metrics.snapshot(),
        "trace": ring.events,
        "rng": {
            key: ch.rng.bit_generator.state for key, ch in channels.items()
        },
    }


profiles = st.tuples(
    st.sampled_from([0.0, 0.2, 0.6]),   # jitter_fraction
    st.sampled_from([0.0, 0.3, 0.8]),   # duplicate_probability
    st.sampled_from([0.0, 0.05]),       # drop_probability
)
ops = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5e-3),
        st.sampled_from(["send"] * 3 + ["abandon", "reroute", "fault", "fault"]),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=1, max_size=60,
)


@settings(max_examples=100, deadline=None)
@given(profiles, profiles, ops, st.integers(min_value=0, max_value=2**31))
def test_relay_equals_the_parent(host_profile, wan_profile, draws, seed):
    jitter, dup, drop = host_profile
    host = ChannelConfig(
        bandwidth_bps=25e9, distance_km=0.05, jitter_fraction=jitter,
        duplicate_probability=dup, drop_probability=drop,
    )
    jitter, dup, drop = wan_profile
    wan = ChannelConfig(
        bandwidth_bps=100e9, distance_km=200.0, jitter_fraction=jitter,
        duplicate_probability=dup, drop_probability=drop,
        buffer_bytes=64 * 1024, ecn_threshold_bytes=16 * 1024,
    )
    new = _run(FabricNetwork, host, wan, seed, draws)
    assert new == _run(ParentNetwork, host, wan, seed, draws)


HOST = ChannelConfig(bandwidth_bps=25e9, distance_km=0.05)
WAN = ChannelConfig(bandwidth_bps=100e9, distance_km=200.0)
#: h0-0 -> h1-0 crosses tor0 -> wan0 -> tor1; at 0.5 ms its packet is on
#: the first WAN span, one hop short of the wan0 -> tor1 edge.
MID_FLIGHT = 0.5e-3
BLACKOUT = FaultSchedule((FaultWindow(kind="blackout", start=0.0),))


def _one_packet(cls, before=None, during=None) -> list:
    sim, network, _ring = _network(cls, HOST, WAN, 0)
    if before is not None:
        before(network)
    got = []
    packet = Packet(
        dst_qpn=0, opcode=Opcode.WRITE_ONLY, length=4096, uid=sim.packet_uid()
    )
    path = network.send("h0-0", "h1-0", packet, got.append)
    assert path == ("h0-0", "tor0", "wan0", "tor1", "h1-0")
    if during is not None:
        sim.call_at(MID_FLIGHT, during, network)
    sim.run()
    return got


@pytest.mark.parametrize("cls", [FabricNetwork, ParentNetwork])
class TestRebindInFlight:
    """A channel re-bound while a packet is in flight carries its next hop:
    the hop tuple cached at launch is dropped with the re-binding."""

    def test_unfaulted_packet_is_delivered(self, cls):
        assert len(_one_packet(cls)) == 1

    def test_fault_installed_in_flight_drops_the_next_hop(self, cls):
        got = _one_packet(
            cls,
            during=lambda net: install_edge_faults(net, "wan0", "tor1", BLACKOUT),
        )
        assert got == []

    def test_fault_removed_in_flight_passes_the_next_hop(self, cls):
        got = _one_packet(
            cls,
            before=lambda net: install_edge_faults(net, "wan0", "tor1", BLACKOUT),
            during=lambda net: _unfault(net, "wan0", "tor1"),
        )
        assert len(got) == 1

    def test_abandoned_packet_is_dropped_at_its_next_hop(self, cls):
        got = _one_packet(cls, during=lambda net: net.abandon(0))
        assert got == []


def test_duplicate_copies_deliver_once():
    host = ChannelConfig(
        bandwidth_bps=25e9, distance_km=0.05, duplicate_probability=0.9
    )
    wan = ChannelConfig(
        bandwidth_bps=100e9, distance_km=200.0, duplicate_probability=0.9
    )
    for cls in (FabricNetwork, ParentNetwork):
        out = _run(cls, host, wan, 0, [(0.0, "send", k) for k in range(1, 16)])
        duplicated = sum(
            v for name, v in out["metrics"].items()
            if name.endswith(".packets_duplicated")
        )
        assert duplicated > 15  # copies were made on most hops...
        assert len(out["got"]) == 15  # ...and each packet landed once
        assert len({uid for _t, uid, _ce in out["got"]}) == 15
