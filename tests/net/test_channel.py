"""Channel serialization, delay, loss and reordering."""

import numpy as np
import pytest

from repro.common.config import ChannelConfig
from repro.net.channel import Channel, DuplexLink
from repro.net.loss import BernoulliLoss
from repro.net.packet import Opcode, Packet
from repro.sim.engine import Simulator


def make_channel(sim, **kw):
    defaults = dict(bandwidth_bps=100e9, distance_km=100.0, mtu_bytes=4096)
    defaults.update(kw)
    cfg = ChannelConfig(**defaults)
    return Channel(sim, cfg, rng=np.random.default_rng(0)), cfg


def pkt(length=4096, psn=0):
    return Packet(dst_qpn=1, opcode=Opcode.WRITE_ONLY, psn=psn, length=length)


class TestSerialization:
    def test_single_packet_delivery_time(self):
        sim = Simulator()
        ch, cfg = make_channel(sim)
        arrivals = []
        ch.attach_sink(lambda p: arrivals.append(sim.now))
        ch.transmit(pkt())
        sim.run()
        expected = 4096 / cfg.bytes_per_second + cfg.one_way_delay
        assert arrivals == [pytest.approx(expected)]

    def test_fifo_serialization_spacing(self):
        sim = Simulator()
        ch, cfg = make_channel(sim)
        arrivals = []
        ch.attach_sink(lambda p: arrivals.append(sim.now))
        for _ in range(4):
            ch.transmit(pkt())
        sim.run()
        ser = 4096 / cfg.bytes_per_second
        gaps = np.diff(arrivals)
        assert np.allclose(gaps, ser)

    def test_transmit_returns_injection_done(self):
        sim = Simulator()
        ch, cfg = make_channel(sim)
        ch.attach_sink(lambda p: None)
        t1 = ch.transmit(pkt())
        t2 = ch.transmit(pkt())
        ser = 4096 / cfg.bytes_per_second
        assert t1 == pytest.approx(ser)
        assert t2 == pytest.approx(2 * ser)

    def test_no_sink_raises(self):
        sim = Simulator()
        ch, _ = make_channel(sim)
        with pytest.raises(RuntimeError):
            ch.transmit(pkt())


class TestLoss:
    def test_drops_counted_and_not_delivered(self):
        sim = Simulator()
        cfg = ChannelConfig(
            bandwidth_bps=100e9, distance_km=1.0, mtu_bytes=4096
        )
        ch = Channel(
            sim, cfg, rng=np.random.default_rng(1), loss=BernoulliLoss(0.3)
        )
        got = []
        ch.attach_sink(lambda p: got.append(p))
        n = 5000
        for _ in range(n):
            ch.transmit(pkt())
        sim.run()
        assert ch.stats.packets_dropped + len(got) == n
        assert ch.stats.packets_dropped / n == pytest.approx(0.3, abs=0.03)

    def test_default_loss_from_config(self):
        sim = Simulator()
        ch, _ = make_channel(sim, drop_probability=0.5)
        assert isinstance(ch.loss, BernoulliLoss)
        assert ch.loss.p == 0.5


class TestJitterReordering:
    def test_jitter_reorders_packets(self):
        sim = Simulator()
        ch, _ = make_channel(sim, jitter_fraction=0.5, distance_km=500.0)
        order = []
        ch.attach_sink(lambda p: order.append(p.psn))
        for i in range(200):
            ch.transmit(pkt(psn=i))
        sim.run()
        assert len(order) == 200
        assert order != sorted(order)  # at least one inversion

    def test_no_jitter_preserves_order(self):
        sim = Simulator()
        ch, _ = make_channel(sim)
        order = []
        ch.attach_sink(lambda p: order.append(p.psn))
        for i in range(100):
            ch.transmit(pkt(psn=i))
        sim.run()
        assert order == sorted(order)


class TestDuplexLink:
    def test_directions_are_independent(self):
        sim = Simulator()
        cfg = ChannelConfig(bandwidth_bps=100e9, distance_km=10.0, mtu_bytes=4096)
        link = DuplexLink(
            sim,
            cfg,
            rng_fwd=np.random.default_rng(0),
            rng_rev=np.random.default_rng(1),
        )
        fwd, rev = [], []
        link.forward.attach_sink(lambda p: fwd.append(p))
        link.reverse.attach_sink(lambda p: rev.append(p))
        link.forward.transmit(pkt())
        link.reverse.transmit(pkt())
        link.reverse.transmit(pkt())
        sim.run()
        assert len(fwd) == 1
        assert len(rev) == 2
