"""A flow's life -- resolve, admit, launch, ACK, finish -- in both modes.

One scenario table, run under ``SimConfig(fluid=False)`` and
``SimConfig(fluid=True)``: the lifecycle is one routine whichever mode
launches the segments, so what it promises holds for both.
"""

import io

import pytest

from repro.common.errors import DeliveryError
from repro.common.units import KiB, MiB
from repro.fabric.service import FabricService, FabricServiceConfig, TenantSpec
from repro.fabric.topology import FabricNetwork, FabricTopology
from repro.net.loss import LossModel
from repro.sim.engine import SimConfig, Simulator
from repro.telemetry import JsonlSink, Telemetry
from repro.workloads.openloop import OpenLoopConfig
from tests.fabric.test_fluid import HOST, LOSSY_WAN, build, counters, run_mix

MODES = pytest.mark.parametrize("fluid", [False, True], ids=["packet", "fluid"])

ONE_SLOT = FabricServiceConfig(qp_pool_per_pair=1, max_flows_per_qp=1)


class BlackHole(LossModel):
    def drops(self, rng, size_bytes) -> bool:
        return True


def two_hosts(fluid, *, linked=True, loss=None, config=None):
    """``a -- sA -- sB -- b``; ``linked=False`` leaves the racks apart."""
    topo = FabricTopology()
    for host, switch in (("a", "sA"), ("b", "sB")):
        topo.add_host(host)
        topo.add_switch(switch)
        topo.add_link(host, switch, HOST)
    if linked:
        topo.add_link("sA", "sB", HOST, loss_fwd=loss)
    sim = Simulator(config=SimConfig(fluid=fluid))
    service = FabricService(FabricNetwork(sim, topo, seed=3), config=config)
    service.add_tenant(TenantSpec(name="t"))
    return sim, service


@MODES
def test_same_instant_flows_queue_fifo_on_one_qp_slot(fluid):
    n = 5
    sim, service = build(fluid, service_config=ONE_SLOT)
    service.add_tenant(TenantSpec(name="a"))
    tickets = [service.submit("a", "h0-0", "h1-0", 96 * KiB) for _ in range(n)]
    sim.run()
    value = sim.telemetry.metrics.value
    assert all(t.completed is not None for t in tickets)
    assert value("fabric.qp_pool_waits") == n - 1
    starts = [t.started for t in tickets]
    assert starts == sorted(starts)
    assert value("fabric.qps_in_use") == 0
    pair = service._pairs[("h0-0", "h1-0")]
    assert pair.flows == [] and not pair.waiting
    assert [qp.active for qp in pair.qps] == [0]


def test_no_route_at_admission_fails_at_the_deadline_in_both_modes():
    waits = {}
    for fluid in (False, True):
        sim, service = two_hosts(fluid, linked=False)
        ticket = service.submit("t", "a", "b", 64 * KiB)
        sim.run()  # drains: never a wedge
        assert ticket.done.processed and ticket.failed
        assert ticket.started is None and ticket.completed is None
        assert isinstance(ticket.error, DeliveryError)
        assert ticket.error.delivered_chunks == ticket.error.total_chunks == 0
        assert sim.now == pytest.approx(service.config.partition_deadline)
        value = sim.telemetry.metrics.value
        assert value("fabric.flows_failed") == 1
        assert value("fabric.reroute.partition_failures") == 1
        assert value("fabric.qps_in_use") == 0
        waits[fluid] = value("fabric.reroute.no_route_waits")
    assert waits[True] == waits[False] == 8


@MODES
def test_black_holed_path_fails_every_flow_through_the_one_exit(fluid):
    n = 3
    sim, service = two_hosts(
        fluid, loss=BlackHole(), config=FabricServiceConfig(max_attempts=3)
    )
    fired = []
    tickets = [service.submit("t", "a", "b", 96 * KiB) for _ in range(n)]
    for ticket in tickets:
        ticket.done.callbacks.append(lambda _event, t=ticket: fired.append(t.seq))
    sim.run()
    value = sim.telemetry.metrics.value
    assert all(t.failed and t.completed is None for t in tickets)
    assert all(t.error is None for t in tickets)  # RTO exhaustion, no partition
    assert sorted(fired) == [t.seq for t in tickets]  # each done fired once
    assert value("fabric.flows_failed") == n
    assert value("fabric.tenant.t.flows_failed") == n
    assert service.tenants["t"].flows_failed == n
    assert value("fabric.flows_completed") == 0
    assert value("fabric.reroute.partition_failures") == 0
    # Three segments a flow, the first to exhaust its attempts fails it.
    assert value("fabric.segments_retransmitted") >= 2 * n
    assert value("fabric.qps_in_use") == 0
    assert service._pairs[("a", "b")].flows == []


@MODES
def test_duplicate_ack_is_counted_before_the_flow_fate_is_read(fluid):
    """Packet mode's rule, for a relayed segment's ACK and a booked
    tranche's ACK batch alike: a duplicate counts (and is a reroute
    duplicate once the pair has rerouted) even on a failed flow, and a
    failed flow takes no new ACK."""
    sim, service = two_hosts(fluid)
    ticket = service.submit("t", "a", "b", 128 * KiB)
    sim.run(until=0.0)  # admitted: the flow's state exists
    pair = service._pairs[("a", "b")]
    (state,) = pair.flows
    sim.run()
    assert ticket.completed is not None and all(state.acked)
    value = sim.telemetry.metrics.value
    assert value("fabric.duplicate_acks") == 0
    acked = value("fabric.segments_acked")

    service._on_ack(state, 0, 0, 0.0, False)
    assert value("fabric.duplicate_acks") == 1
    assert value("fabric.reroute.dup_deliveries") == 0
    pair.reroutes = 1
    service._on_acks(state, [0, 1])
    assert value("fabric.duplicate_acks") == 3
    assert value("fabric.reroute.dup_deliveries") == 2

    ticket.failed = True
    state.acked[3] = False
    service._on_ack(state, 2, 0, 0.0, False)
    service._on_acks(state, [2, 3])
    assert value("fabric.duplicate_acks") == 5
    assert value("fabric.reroute.dup_deliveries") == 4
    assert not state.acked[3]
    assert value("fabric.segments_acked") == acked


def _lossy_transfer(fluid):
    """One 4 MiB flow over a lossy WAN, with the network's uid traffic tapped."""
    sim, service = build(fluid, wan=LOSSY_WAN)
    net = service.net
    launched, abandoned = [], []
    send, abandon = net.send, net.abandon

    def spy_send(src, dst, packet, on_deliver):
        launched.append(packet.uid)
        return send(src, dst, packet, on_deliver)

    def spy_abandon(uid):
        abandoned.append((uid, uid in net._inflight))
        abandon(uid)

    net.send, net.abandon = spy_send, spy_abandon
    service.add_tenant(TenantSpec(name="a"))
    ticket = service.submit("a", "h0-0", "h1-0", 4 * MiB)
    sim.run()
    assert ticket.completed is not None
    assert not net._inflight
    return sim, ticket, launched, abandoned


@MODES
def test_rto_abandons_only_a_relayed_packet(fluid):
    """A booked segment has no packet in flight: its RTO must not tell the
    network to forget uid 0 (or a stale uid) -- some other flow's packet."""
    sim, ticket, launched, abandoned = _lossy_transfer(fluid)
    retx = counters(sim)[1]
    assert retx == ticket.retransmits > 0
    if fluid:
        assert launched == [] and abandoned == []
    else:
        assert len(abandoned) == retx
        assert {uid for uid, _ in abandoned} <= set(launched)


def test_packet_uids_are_per_simulator():
    """uids come from the simulator, not a process-wide counter: a second
    run in the same process launches and abandons the very same uids, and
    they still key ``FabricNetwork._inflight`` one packet each."""
    _, _, launched, abandoned = _lossy_transfer(False)
    assert launched == list(range(len(launched)))  # this run's own 0, 1, 2, ...
    assert len(launched) > 100
    # Some RTOs abandon a packet still in transit (dropped on the way, so
    # never delivered), some a packet that did arrive; none a foreign uid.
    assert any(live for _, live in abandoned)
    assert all(uid in launched for uid, _ in abandoned)
    assert _lossy_transfer(False)[2:] == (launched, abandoned)


SMALL = OpenLoopConfig(
    tenants=8, duration=0.002, offered_load_bps=20e9,
    mean_message_bytes=64 * KiB, max_message_bytes=512 * KiB,
)


@MODES
def test_same_seed_same_trace_and_registry(fluid):
    runs = []
    for _ in range(2):
        buf = io.StringIO()
        telemetry = Telemetry(trace=True, trace_sinks=[JsonlSink(buf)])
        _sim, service = run_mix(
            fluid, SMALL, wan=LOSSY_WAN, telemetry=telemetry
        )
        assert service.completed_flows == len(service.flows) > 10
        runs.append((telemetry.metrics.snapshot(), buf.getvalue()))
    assert runs[0][1].count("msg_post") == len(service.flows)
    assert runs[0] == runs[1]
