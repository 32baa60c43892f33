"""One endpoint, many peers: per-connection provisioning (Section 2.1).

"A single endpoint might communicate with remote endpoints at varying
distances.  Achieving optimal message completion times in this scenario
may require per-connection reliability protocol provisioning."  Here one
hub datacenter talks to a near/clean peer and a far/lossy peer
simultaneously; the adaptive layer provisions SR on one connection and EC
on the other.
"""

from repro.common.config import ChannelConfig, SdrConfig
from repro.common.units import KiB, MiB
from repro.reliability.adaptive import DropRateEstimator
from repro.reliability.ec import EcConfig
from repro.sdr import context_create
from repro.sim import Simulator
from repro.stack import endpoints, wire
from repro.verbs import Fabric

from tests.conftest import all_of


def build_hub():
    sim = Simulator()
    fabric = Fabric(sim, seed=2)
    hub = fabric.add_device("hub")
    near = fabric.add_device("near")
    far = fabric.add_device("far")
    fabric.connect(
        hub, near,
        ChannelConfig(bandwidth_bps=100e9, distance_km=10.0, mtu_bytes=4 * KiB),
    )
    fabric.connect(
        hub, far,
        ChannelConfig(
            bandwidth_bps=100e9, distance_km=3750.0, mtu_bytes=4 * KiB,
            drop_probability=5e-3,
        ),
    )
    cfg = SdrConfig(
        chunk_bytes=8 * KiB, max_message_bytes=2 * MiB,
        channels=4, inflight_messages=64,
    )
    ctx_hub = context_create(hub, sdr_config=cfg)
    ctx_near = context_create(near, sdr_config=cfg)
    ctx_far = context_create(far, sdr_config=cfg)
    return sim, fabric, ctx_hub, ctx_near, ctx_far


def wire_pair(ctx_a, ctx_b, peer_rtt):
    sender, receiver = endpoints(
        "adaptive", wire(ctx_a, ctx_b),
        ec_config=EcConfig(codec="mds", k=8, m=4), rtt=peer_rtt,
    )
    receiver.estimator = DropRateEstimator(initial=1e-6, alpha=0.5)
    return sender, receiver


class TestMultiPeerProvisioning:
    def test_different_protocols_per_connection(self):
        sim, fabric, ctx_hub, ctx_near, ctx_far = build_hub()
        near_rtt = fabric.links[("hub", "near")].config.rtt
        far_rtt = fabric.links[("hub", "far")].config.rtt
        to_near = wire_pair(ctx_hub, ctx_near, near_rtt)
        to_far = wire_pair(ctx_hub, ctx_far, far_rtt)
        size = 512 * KiB
        mr_near = ctx_near.mr_reg(size)
        mr_far = ctx_far.mr_reg(size)
        # A few rounds on each connection; both connections progress
        # concurrently within a round, and the estimators learn between
        # rounds.
        for _ in range(4):
            tickets = []
            for (sender, receiver), mr in (
                (to_near, mr_near), (to_far, mr_far),
            ):
                receiver.post_receive(mr, size)
                tickets.append(sender.write(size))
            sim.run(all_of(sim, [t.done for t in tickets]))
        near_history = to_near[1].protocol_history
        far_history = to_far[1].protocol_history
        # The clean short link stays on SR throughout...
        assert set(near_history) == {"sr"}
        # ...while the lossy long-haul link migrates to EC after the first
        # loss observations.
        assert "ec" in far_history
        # And the per-connection estimators really diverged.
        assert (
            to_far[1].estimator.estimate > 10 * to_near[1].estimator.estimate
        )

    def test_connections_share_the_hub_device(self):
        """Both QPs live on one device/context (shared DPA pool)."""
        sim, fabric, ctx_hub, ctx_near, ctx_far = build_hub()
        to_near = wire_pair(ctx_hub, ctx_near, None)
        to_far = wire_pair(ctx_hub, ctx_far, None)
        assert len(ctx_hub.qps) == 2
        assert ctx_hub.qps[0].ctx is ctx_hub.qps[1].ctx
        size = 128 * KiB
        mr_near = ctx_near.mr_reg(size)
        mr_far = ctx_far.mr_reg(size)
        to_near[1].post_receive(mr_near, size)
        to_far[1].post_receive(mr_far, size)
        t1 = to_near[0].write(size)
        t2 = to_far[0].write(size)
        sim.run(all_of(sim, [t1.done, t2.done]))
        assert t1.finish_time is not None and t2.finish_time is not None
        # The near write completes long before the 25 ms-RTT one.
        assert t1.completion_time < t2.completion_time / 5
