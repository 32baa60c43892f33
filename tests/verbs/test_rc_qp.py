"""RC QP: reliable delivery with Go-Back-N over lossy channels."""

import pytest

from repro.common.config import ChannelConfig
from repro.common.units import KiB, MiB
from repro.stack import build_link
from repro.verbs.mr import MemoryRegion
from repro.verbs.qp import RcQp, SendWr

from tests.conftest import drains_within
from tests.verbs.conftest import cq, make_wire


def make_pair(wire, **kw):
    qa = RcQp(wire.dev_a, send_cq=cq(wire, "a.s"), recv_cq=cq(wire, "a.r"), **kw)
    qb = RcQp(wire.dev_b, send_cq=cq(wire, "b.s"), recv_cq=cq(wire, "b.r"), **kw)
    qa.connect(qb.info())
    qb.connect(qa.info())
    return qa, qb


class TestLossless:
    def test_write_completes_with_ack(self, wire):
        qa, qb = make_pair(wire)
        buf = bytearray(64 * KiB)
        mr = MemoryRegion(64 * KiB, data=buf)
        wire.dev_b.reg_mr(mr)
        payload = bytes(range(256)) * 256
        qa.post_send(SendWr(length=64 * KiB, rkey=mr.rkey, payload=payload, wr_id=1))
        wire.sim.run()
        assert bytes(buf) == payload
        cqes = qa.send_cq.poll(10)
        assert [c.wr_id for c in cqes] == [1]
        assert qa._m_retransmissions.value == 0

    def test_multiple_writes_in_order(self, wire):
        qa, qb = make_pair(wire)
        mr = MemoryRegion(1 * MiB)
        wire.dev_b.reg_mr(mr)
        for i in range(4):
            qa.post_send(SendWr(length=128 * KiB, rkey=mr.rkey, wr_id=i))
        wire.sim.run()
        assert [c.wr_id for c in qa.send_cq.poll(10)] == [0, 1, 2, 3]

    def test_write_with_immediate_delivers_recv_cqe(self, wire):
        qa, qb = make_pair(wire)
        mr = MemoryRegion(64 * KiB)
        wire.dev_b.reg_mr(mr)
        qa.post_send(SendWr(length=32 * KiB, rkey=mr.rkey, immediate=42))
        wire.sim.run()
        cqes = qb.recv_cq.poll(10)
        assert len(cqes) == 1
        assert cqes[0].immediate == 42


class TestLossy:
    @pytest.mark.parametrize("drop", [0.02, 0.1])
    def test_reliable_delivery_under_loss(self, drop):
        wire = make_wire(drop=drop, distance_km=50.0, seed=5)
        qa, qb = make_pair(wire)
        buf = bytearray(256 * KiB)
        mr = MemoryRegion(256 * KiB, data=buf)
        wire.dev_b.reg_mr(mr)
        payload = bytes(i % 251 for i in range(256 * KiB))
        qa.post_send(SendWr(length=256 * KiB, rkey=mr.rkey, payload=payload, wr_id=9))
        wire.sim.run(until=30.0)
        assert bytes(buf) == payload
        assert [c.wr_id for c in qa.send_cq.poll(10)] == [9]
        data_drops = (
            wire.fabric.links[("a", "b")].forward.stats.packets_dropped
        )
        if data_drops:
            assert qa._m_retransmissions.value > 0

    def test_nak_triggers_rewind(self):
        wire = make_wire(drop=0.05, distance_km=50.0, seed=7)
        qa, qb = make_pair(wire)
        mr = MemoryRegion(512 * KiB)
        wire.dev_b.reg_mr(mr)
        qa.post_send(SendWr(length=512 * KiB, rkey=mr.rkey, wr_id=0))
        wire.sim.run(until=30.0)
        assert len(qa.send_cq.poll(10)) == 1
        assert qb._m_naks_sent.value > 0

    def test_go_back_n_retransmits_more_than_lost(self):
        # GBN's inefficiency: retransmissions exceed actual losses.
        wire = make_wire(drop=0.05, distance_km=100.0, seed=11)
        qa, qb = make_pair(wire)
        mr = MemoryRegion(1 * MiB)
        wire.dev_b.reg_mr(mr)
        qa.post_send(SendWr(length=1 * MiB, rkey=mr.rkey, wr_id=0))
        wire.sim.run(until=60.0)
        assert len(qa.send_cq.poll(10)) == 1
        lost = wire.fabric.links[("a", "b")].forward.stats.packets_dropped
        assert qa._m_retransmissions.value >= lost


class TestWindow:
    def test_window_limits_outstanding(self, wire):
        qa, qb = make_pair(wire, window_packets=4)
        mr = MemoryRegion(1 * MiB)
        wire.dev_b.reg_mr(mr)
        qa.post_send(SendWr(length=256 * KiB, rkey=mr.rkey, wr_id=0))
        # After the first scheduling rounds, outstanding <= window.
        wire.sim.run(until=1e-5)
        assert qa._snd_nxt - qa._snd_una <= 4
        wire.sim.run()
        assert len(qa.send_cq.poll(10)) == 1


def test_go_back_n_drains_behind_cross_traffic():
    """Four WRs posted at 3.35 us, 50 ns behind one MTU of a second QP pair
    on the same wire, at 5 % loss: every rewind must end in a drain."""
    link = build_link(
        ChannelConfig(
            bandwidth_bps=100e9, distance_km=1.0, mtu_bytes=4 * KiB,
            drop_probability=0.05, buffer_bytes=6 * KiB,
        ),
        seed=3, names=("a", "b"),
    )
    sim, a, b = link.sim, link.dev_a, link.dev_b

    def rc_pair():
        qps = [RcQp(dev, send_cq=cq(link), recv_cq=cq(link)) for dev in (a, b)]
        qps[0].connect(qps[1].info())
        qps[1].connect(qps[0].info())
        return qps[0]

    qa, qx = rc_pair(), rc_pair()
    mr = MemoryRegion(64 * KiB)
    b.reg_mr(mr)
    lengths = (4 * KiB, 4 * KiB - 1, 20 * KiB + 7, 64)
    sim.call_at(67 * 50e-9, lambda: [
        qa.post_send(SendWr(length=n, rkey=mr.rkey, wr_id=i))
        for i, n in enumerate(lengths)
    ])
    sim.call_at(66 * 50e-9, qx.post_send, SendWr(
        length=4 * KiB, rkey=mr.rkey, remote_offset=60 * KiB, signaled=False,
    ))
    drains_within(sim, dispatches=20_000, sim_seconds=0.01)
    assert len(qa.send_cq.poll(10)) == len(lengths)
