"""Differential test: the ``_drive`` send pumps against the generators they replaced.

``GeneratorUcQp`` / ``GeneratorUdQp`` / ``GeneratorRcQp`` carry the send
side of ``UcQp`` / ``UdQp`` / ``RcQp`` as it stood before the datapath
went callback-only (a ``_send_pump`` process woken through an ``Event``,
one ``timeout`` per serialisation wait; RC's also parked on window
credit).  They are kept here as the reference.  Every
scheduling of the callback pump takes the heap slot the ``Event`` it
replaces took, so the comparison is the strongest there is: the whole
run's ``(time, seq)`` dispatch sequence must be equal, on top of every
wire packet, send CQE and received byte.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ChannelConfig
from repro.common.units import KiB
from repro.net.packet import Opcode, Packet
from repro.sim.engine import Simulator
from repro.verbs.cq import CompletionQueue, Cqe
from repro.verbs.device import Fabric
from repro.verbs.mr import MemoryRegion
from repro.verbs.qp import _IMM_WRITES, BaseQp, RcQp, SendWr, UcQp, UdQp
from tests.conftest import drains_within

MTU = 4 * KiB
UNIT = 50e-9  # a 4 KiB packet serialises in 328 ns at 100 Gb/s


class GeneratorUcQp(BaseQp):
    """Send side of the pre-callback ``UcQp``."""

    def __init__(self, device, **kw):
        super().__init__(device, **kw)
        self._sq = deque()
        self._sq_psn = 0
        self._wake = None
        self._pump = self.sim.process(self._send_pump())

    def on_packet(self, packet):
        pass

    def post_send(self, wr):
        self._require_ready()
        self._sq.append(wr)
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed(None)

    def _send_pump(self):
        while True:
            if not self._sq:
                self._wake = self.sim.event()
                yield self._wake
                continue
            wr = self._sq.popleft()
            yield from self._inject(wr)
            if wr.signaled:
                self.send_cq.push(
                    Cqe(
                        qpn=self.qpn,
                        opcode=Opcode.WRITE_ONLY,
                        byte_len=wr.length,
                        timestamp=self.sim.now,
                        wr_id=wr.wr_id,
                        generation=self.generation,
                        msg_seq=wr.msg_seq,
                        pkt_idx=wr.pkt_idx,
                        chunk=wr.chunk,
                    )
                )

    def _inject(self, wr):
        mtu = self.channel.config.mtu_bytes
        nfrag = max(1, -(-wr.length // mtu))
        sent = 0
        for i in range(nfrag):
            flen = min(mtu, wr.length - sent)
            if nfrag == 1:
                op = Opcode.WRITE_ONLY_IMM if wr.immediate is not None else Opcode.WRITE_ONLY
            elif i == 0:
                op = Opcode.WRITE_FIRST
            elif i == nfrag - 1:
                op = (
                    Opcode.WRITE_LAST_IMM
                    if wr.immediate is not None
                    else Opcode.WRITE_LAST
                )
            else:
                op = Opcode.WRITE_MIDDLE
            payload = (
                None if wr.payload is None else wr.payload[sent : sent + flen]
            )
            pkt = Packet(
                dst_qpn=self.dst_qpn,
                src_qpn=self.qpn,
                opcode=op,
                psn=self._sq_psn,
                rkey=wr.rkey,
                remote_offset=wr.remote_offset + sent,
                length=flen,
                payload=payload,
                immediate=wr.immediate if op.name.endswith("IMM") else None,
                msg_seq=wr.msg_seq,
                pkt_idx=wr.pkt_idx,
                chunk=wr.chunk,
                attempt=wr.attempt,
                flow_id=wr.flow_id if i == 0 else None,
            )
            self._sq_psn = (self._sq_psn + 1) % (1 << 24)
            done = self.channel.transmit(pkt)
            sent += flen
            if done > self.sim.now:
                yield self.sim.timeout(done - self.sim.now)


class GeneratorUdQp(BaseQp):
    """Send side of the pre-callback ``UdQp``."""

    def __init__(self, device, **kw):
        super().__init__(device, **kw)
        self._sq = deque()
        self._wake = None
        self._pump = self.sim.process(self._send_pump())

    def on_packet(self, packet):
        pass

    def post_send(self, wr):
        self._require_ready()
        self._sq.append((wr, self.dst_qpn, self.peer_device))
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed(None)

    def _send_pump(self):
        while True:
            if not self._sq:
                self._wake = self.sim.event()
                yield self._wake
                continue
            wr, dst_qpn, dst_device = self._sq.popleft()
            channel = self.device.link_to(dst_device)
            pkt = Packet(
                dst_qpn=dst_qpn,
                src_qpn=self.qpn,
                opcode=Opcode.UD_SEND,
                length=wr.length,
                payload=wr.payload,
                immediate=wr.immediate,
            )
            done = channel.transmit(pkt)
            if done > self.sim.now:
                yield self.sim.timeout(done - self.sim.now)
            if wr.signaled:
                self.send_cq.push(
                    Cqe(
                        qpn=self.qpn,
                        opcode=Opcode.UD_SEND,
                        byte_len=wr.length,
                        timestamp=self.sim.now,
                        wr_id=wr.wr_id,
                    )
                )


class GeneratorRcQp(RcQp):
    """Send pump of the pre-callback ``RcQp``; its receive side and ACKs are ``RcQp``'s."""

    def __init__(self, device, *, window_packets=1024, **kw):
        BaseQp.__init__(self, device, **kw)
        self.window_packets = window_packets
        self._wrs = []
        self._descs = []
        self._snd_una = 0
        self._snd_nxt = 0
        self._built = 0
        self._wake = None
        self._pump = self.sim.process(self._send_pump())
        self._timer_armed_at = None
        self._epsn = 0
        self._nak_sent_for = -1
        self._unacked_rx = 0
        self._m_retransmissions = self._metrics.counter("retransmissions")
        self._m_naks_sent = self._metrics.counter("naks_sent")
        self._m_rto_rewinds = self._metrics.counter("rto_rewinds")

    def _kick(self):
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed(None)

    def _send_pump(self):
        while True:
            can_send = (
                self._snd_nxt < len(self._descs)
                and self._snd_nxt - self._snd_una < self.window_packets
            )
            if not can_send:
                self._wake = self.sim.event()
                yield self._wake
                continue
            psn = self._snd_nxt
            self._snd_nxt += 1
            if psn < self._built:
                self._m_retransmissions.inc()
            else:
                self._built = psn + 1
            desc = self._descs[psn]
            wr = self._wrs[desc.wr_index]
            payload = (
                None
                if wr.payload is None
                else wr.payload[desc.offset_in_wr : desc.offset_in_wr + desc.length]
            )
            pkt = Packet(
                dst_qpn=self.dst_qpn,
                src_qpn=self.qpn,
                opcode=desc.opcode,
                psn=psn,
                rkey=wr.rkey,
                remote_offset=wr.remote_offset + desc.offset_in_wr,
                length=desc.length,
                payload=payload,
                immediate=wr.immediate if desc.opcode in _IMM_WRITES else None,
                uid=self.sim.packet_uid(),
            )
            done = self.channel.transmit(pkt)
            self._arm_timer()
            if done > self.sim.now:
                yield self.sim.timeout(done - self.sim.now)


def drive(sender_cls, receiver_cls, posts, *, buffer_bytes, cross=(), **qp_kw):
    """Run one posting schedule; everything observable about the send side.

    ``cross`` ticks each put one MTU packet of a second QP pair on the same
    wire: with a bounded buffer the sender under test then tail-drops at
    enqueue, the zero-time ``done == now`` case.
    """
    sim = Simulator()
    fabric = Fabric(sim, seed=3)
    a, b = fabric.add_device("a"), fabric.add_device("b")
    fabric.connect(
        a, b,
        ChannelConfig(
            bandwidth_bps=100e9, distance_km=1.0, mtu_bytes=MTU,
            drop_probability=0.05, buffer_bytes=buffer_bytes,
        ),
    )
    send_cq = CompletionQueue(sim, name="a.s")
    recv_cq = CompletionQueue(sim, name="b.r")
    qa = sender_cls(
        a, send_cq=send_cq, recv_cq=CompletionQueue(sim, name="a.r"), **qp_kw
    )
    qb = receiver_cls(b, send_cq=CompletionQueue(sim, name="b.s"), recv_cq=recv_cq)
    qa.connect(qb.info())
    qb.connect(qa.info())
    qx = receiver_cls(a, send_cq=CompletionQueue(sim), recv_cq=CompletionQueue(sim))
    qy = receiver_cls(b, send_cq=CompletionQueue(sim), recv_cq=CompletionQueue(sim))
    qx.connect(qy.info())
    qy.connect(qx.info())
    buf = bytearray(64 * KiB)
    mr = MemoryRegion(len(buf), data=buf)
    b.reg_mr(mr)

    wire = []
    channel = a.link_to("b")
    transmit = channel.transmit

    def tap(pkt):
        done = transmit(pkt)
        wire.append((
            sim.now, done, pkt.opcode, pkt.psn, pkt.length, pkt.remote_offset,
            pkt.payload, pkt.immediate, pkt.msg_seq, pkt.attempt, pkt.flow_id,
        ))
        return done

    channel.transmit = tap

    def post(wrs):
        for spec in wrs:
            qa.post_send(SendWr(rkey=mr.rkey, **spec))

    for tick, wrs in posts:
        if tick == 0:
            post(wrs)  # before the pump's first dispatch
        else:
            sim.call_at(tick * UNIT, post, wrs)
    for tick in cross:
        wr = SendWr(length=MTU, rkey=mr.rkey, remote_offset=60 * KiB, signaled=False)
        if tick == 0:
            qx.post_send(wr)
        else:
            sim.call_at(tick * UNIT, qx.post_send, wr)
    dispatched = []
    step = sim.step

    def recorded_step():
        dispatched.append(sim._heap[0][:2])
        step()

    sim.step = recorded_step
    drains_within(sim, dispatches=200_000, sim_seconds=1.0)
    return {
        "wire": wire,
        # As plain tuples: Cqe equality skips its lineage fields.
        "send_cqes": [tuple(c) for c in send_cq.poll(10_000)],
        "recv_cqes": [tuple(c) for c in recv_cq.poll(10_000)],
        "memory": bytes(buf),
        "dispatched": dispatched,
    }


def uc_wrs():
    def build(length, with_payload, imm, signaled, flow, n):
        return dict(
            length=length,
            remote_offset=(n * 512) % (32 * KiB),
            payload=bytes([n % 251]) * length if with_payload else None,
            immediate=imm, signaled=signaled, wr_id=n,
            msg_seq=n, pkt_idx=n % 7, chunk=n % 3, attempt=n % 2,
            flow_id=flow,
        )

    return st.builds(
        build,
        length=st.sampled_from([1, 64, MTU - 1, MTU, MTU + 1, 3 * MTU, 5 * MTU + 7]),
        with_payload=st.booleans(),
        imm=st.none() | st.integers(0, 2**32 - 1),
        signaled=st.booleans(),
        flow=st.none() | st.integers(1, 9),
        n=st.integers(0, 1000),
    )


def ud_wrs():
    def build(length, imm, signaled, n):
        return dict(
            length=length, payload=bytes([n % 251]) * length,
            immediate=imm, signaled=signaled, wr_id=n,
        )

    return st.builds(
        build,
        length=st.sampled_from([1, 64, MTU]),
        imm=st.none() | st.integers(0, 2**32 - 1),
        signaled=st.booleans(),
        n=st.integers(0, 1000),
    )


def schedules(wrs):
    # Tick 0 posts land before the first dispatch; several WRs on one tick
    # are back-to-back posts; ticks 50 ns apart overlap a 328 ns packet.
    return st.lists(
        st.tuples(st.integers(0, 120), st.lists(wrs, min_size=1, max_size=4)),
        max_size=12,
        unique_by=lambda p: p[0],
    ).map(sorted)


#: 0 = unbounded; 6 KiB tail-drops a packet enqueued behind cross traffic.
BUFFERS = st.sampled_from([0, 6 * KiB])
CROSS = st.sets(st.integers(0, 120), max_size=8)


@settings(max_examples=200, deadline=None)
@given(schedules(uc_wrs()), BUFFERS, CROSS)
def test_uc_drive_matches_generator_pump(posts, buffer_bytes, cross):
    kw = dict(buffer_bytes=buffer_bytes, cross=sorted(cross))
    assert drive(UcQp, UcQp, posts, **kw) == drive(GeneratorUcQp, UcQp, posts, **kw)


@settings(max_examples=200, deadline=None)
@given(schedules(ud_wrs()), BUFFERS, CROSS)
def test_ud_drive_matches_generator_pump(posts, buffer_bytes, cross):
    kw = dict(buffer_bytes=buffer_bytes, cross=sorted(cross))
    assert drive(UdQp, UdQp, posts, **kw) == drive(GeneratorUdQp, UdQp, posts, **kw)


@settings(max_examples=80, deadline=None)
@given(schedules(uc_wrs()), BUFFERS, CROSS, st.sampled_from([1, 3, 1024]))
def test_rc_drive_matches_generator_pump(posts, buffer_bytes, cross, window):
    """5 % loss both ways: NAK and RTO rewinds, retransmissions, window stalls."""
    kw = dict(buffer_bytes=buffer_bytes, cross=sorted(cross), window_packets=window)
    got = drive(RcQp, RcQp, posts, **kw)
    assert got == drive(GeneratorRcQp, RcQp, posts, **kw)


def test_rc_rewinds_are_reached():
    """A pinned schedule that rewinds and parks on window credit."""
    posts = [(0, [dict(length=5 * MTU + 7, wr_id=i) for i in range(3)]),
             (40, [dict(length=3 * MTU, wr_id=9)])]
    kw = dict(buffer_bytes=0, window_packets=3)
    got = drive(RcQp, RcQp, posts, **kw)
    assert got == drive(GeneratorRcQp, RcQp, posts, **kw)
    psns = [psn for _, _, _, psn, *_ in got["wire"]]
    assert len(psns) > len(set(psns))  # something was sent twice


@pytest.mark.parametrize(
    "sender, reference, spec",
    [
        (UcQp, GeneratorUcQp, dict(length=3 * MTU, immediate=5)),
        (UdQp, GeneratorUdQp, dict(length=MTU, payload=b"y" * MTU)),
    ],
)
def test_zero_time_tail_drop_is_reached(sender, reference, spec):
    """Behind cross traffic a 6 KiB buffer tail-drops: ``done == now``, no wait entry."""
    posts = [(4, [dict(spec, wr_id=i) for i in range(4)])]
    kw = dict(buffer_bytes=6 * KiB, cross=[4])
    got = drive(sender, sender, posts, **kw)
    assert got == drive(reference, sender, posts, **kw)
    assert any(done == now for now, done, *_ in got["wire"])
