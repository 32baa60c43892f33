"""The per-packet completions are the full record, or counted by ``wr_id``.

The per-packet receive CQE of :class:`~repro.verbs.qp.UcQp` is built with
``tuple.__new__`` and every field spelled out (``docs/simulation.md``,
"Hot-path records").  On a lossy run with ECN marking, every CQE pushed
must be the full twelve-field record the named constructor builds,
carrying the packet's lineage fields and its CE bit.

The SDR send CQ reads nothing of an injection completion but its WR's
handle, so an SDR data QP completing a signaled send counts it on that
queue and hands its ``wr_id`` to its ``_wr_counter``, building no record.
The same run checks that hook: every signaled WR is counted once, oldest first per
QP, at the instant its last packet left the wire.
"""

from __future__ import annotations

from collections import defaultdict, deque

from repro.common.units import KiB
from repro.net.channel import Channel
from repro.stack import endpoints
from repro.verbs.cq import CompletionQueue, Cqe, CqeStatus
from repro.verbs.qp import UcQp

from tests.conftest import make_sdr_pair
from tests.reliability.conftest import random_payload


def test_every_cqe_of_a_lossy_ecn_run_is_the_full_record(monkeypatch):
    posted = defaultdict(deque)  # qpn -> (wr, generation) in post order
    arriving = []  # (qp, packet) whose on_packet is running
    driving = []  # the UC QP whose send pump is running
    wire_done = {}  # src qpn -> when its last transmitted packet left
    seen = {"send": 0, "recv": 0, "ce": 0}
    push, post_send, drive, on_packet, transmit = (
        CompletionQueue.push, UcQp.post_send, UcQp._drive, UcQp.on_packet,
        Channel.transmit,
    )

    def recording_post_send(self, wr):
        post_send(self, wr)
        posted[self.qpn].append((wr, self.generation))

    def recording_drive(self, *args):
        driving.append(self)
        try:
            drive(self, *args)
        finally:
            driving.pop()

    def recording_transmit(self, packet):
        done = transmit(self, packet)
        wire_done[packet.src_qpn] = done
        return done

    def recording_on_packet(self, packet):
        arriving.append((self, packet))
        try:
            on_packet(self, packet)
        finally:
            arriving.pop()

    def checked_push(self, cqe):
        assert cqe.__class__ is Cqe and len(cqe) == len(Cqe._fields)
        assert tuple(cqe) == tuple(Cqe(*cqe))
        # Receive side only: every send CQ of the SDR pair counts by wr_id.
        assert arriving and not driving
        qp, pkt = arriving[-1]
        want = (
            qp.qpn, pkt.opcode, pkt.length, self.sim.now, pkt.immediate,
            None, CqeStatus.SUCCESS, qp.generation, pkt.msg_seq,
            pkt.pkt_idx, pkt.chunk, pkt.ce,
        )
        assert pkt.msg_seq is not None and pkt.pkt_idx is not None
        seen["recv"] += 1
        seen["ce"] += pkt.ce
        assert tuple(cqe) == want
        push(self, cqe)

    def checked_counter(uc):
        count = uc._wr_counter

        def counter(wr_id):
            # The oldest signaled WR of the driving QP left the wire just
            # now, and was counted as posted.
            (qp,) = driving
            assert qp is uc
            wr, generation = posted[qp.qpn].popleft()
            assert wr.signaled
            assert wr.msg_seq is not None and wr.chunk is not None
            assert (wr_id, generation) == (wr.wr_id, qp.generation)
            assert qp.sim.now == wire_done[qp.qpn]
            seen["send"] += 1
            count(wr_id)
        return counter

    monkeypatch.setattr(UcQp, "post_send", recording_post_send)
    monkeypatch.setattr(UcQp, "_drive", recording_drive)
    monkeypatch.setattr(UcQp, "on_packet", recording_on_packet)
    monkeypatch.setattr(Channel, "transmit", recording_transmit)
    monkeypatch.setattr(CompletionQueue, "push", checked_push)

    pair = make_sdr_pair(drop=0.02, ecn_threshold_bytes=4 * KiB, seed=3)
    for qp in (pair.qp_a, pair.qp_b):
        for row in qp.data_qps:
            for uc in row:
                uc._wr_counter = checked_counter(uc)
    sender, receiver = endpoints("sr", pair)
    size = 512 * KiB
    buf = bytearray(size)
    mr = pair.ctx_b.mr_reg(size, data=buf)
    for seed in range(3):
        payload = random_payload(size, seed)
        rx = receiver.post_receive(mr, size)
        pair.sim.run(sender.write(size, payload).done)
        assert rx.done.ok and bytes(buf) == payload
    assert seen["send"] > seen["recv"] > seen["ce"] > 0
    assert not any(posted.values())  # every signaled WR completed once
    # Each was counted as posted, and none queued.
    scqs = (pair.qp_a.send_cq, pair.qp_b.send_cq)
    assert sum(cq.sim.telemetry.metrics.value(f"cq.{cq.name}.cqes_posted") for cq in scqs) == seen["send"]
    assert not any(cq.entries for cq in scqs)
