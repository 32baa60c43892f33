"""Asymmetric duplex links (thin return path for control traffic)."""

from repro.common.config import ChannelConfig
from repro.common.units import KiB
from repro.sdr import context_create
from repro.sim import Simulator
from repro.stack import endpoints, wire
from repro.verbs import Fabric
from repro.common.config import SdrConfig


def test_reverse_config_applies():
    sim = Simulator()
    fabric = Fabric(sim, seed=0)
    a, b = fabric.add_device("a"), fabric.add_device("b")
    fwd = ChannelConfig(bandwidth_bps=400e9, distance_km=100.0, mtu_bytes=4 * KiB)
    rev = ChannelConfig(bandwidth_bps=10e9, distance_km=100.0, mtu_bytes=4 * KiB)
    link = fabric.connect(a, b, fwd, config_rev=rev)
    assert link.forward.config.bandwidth_bps == 400e9
    assert link.reverse.config.bandwidth_bps == 10e9


def test_sr_write_over_asymmetric_link():
    """ACKs on a 100x thinner return path still complete the write."""
    sim = Simulator()
    fabric = Fabric(sim, seed=1)
    a, b = fabric.add_device("a"), fabric.add_device("b")
    fwd = ChannelConfig(
        bandwidth_bps=100e9, distance_km=100.0, mtu_bytes=4 * KiB,
        drop_probability=5e-3,
    )
    rev = ChannelConfig(bandwidth_bps=1e9, distance_km=100.0, mtu_bytes=4 * KiB)
    fabric.connect(a, b, fwd, config_rev=rev)
    cfg = SdrConfig(chunk_bytes=8 * KiB, max_message_bytes=4 * 1024 * KiB)
    ctx_a, ctx_b = context_create(a, sdr_config=cfg), context_create(b, sdr_config=cfg)
    sender, receiver = endpoints("sr", wire(ctx_a, ctx_b))
    size = 512 * KiB
    mr = ctx_b.mr_reg(size)
    receiver.post_receive(mr, size)
    ticket = sender.write(size)
    sim.run(ticket.done)
    assert not ticket.failed
    assert ticket.finish_time is not None
