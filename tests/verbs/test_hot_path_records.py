"""The per-packet CQEs are the full record.

The two per-packet CQE sites of :class:`~repro.verbs.qp.UcQp` build their
:class:`~repro.verbs.cq.Cqe` with ``tuple.__new__`` and every field spelled
out (``docs/simulation.md``, "Hot-path records").  On a lossy run with ECN
marking, every CQE pushed on either side must be the full twelve-field
record the named constructor builds, carrying the WR's or the packet's
lineage fields and its CE bit.
"""

from __future__ import annotations

from collections import defaultdict, deque

from repro.common.units import KiB
from repro.net.packet import Opcode
from repro.stack import endpoints
from repro.verbs.cq import CompletionQueue, Cqe, CqeStatus
from repro.verbs.qp import UcQp

from tests.conftest import make_sdr_pair
from tests.reliability.conftest import random_payload


def test_every_cqe_of_a_lossy_ecn_run_is_the_full_record(monkeypatch):
    posted = defaultdict(deque)  # qpn -> (wr, generation) in post order
    arriving = []  # (qp, packet) whose on_packet is running
    seen = {"send": 0, "recv": 0, "ce": 0}
    push, post_send, on_packet = (
        CompletionQueue.push, UcQp.post_send, UcQp.on_packet
    )

    def recording_post_send(self, wr):
        post_send(self, wr)
        posted[self.qpn].append((wr, self.generation))

    def recording_on_packet(self, packet):
        arriving.append((self, packet))
        try:
            on_packet(self, packet)
        finally:
            arriving.pop()

    def checked_push(self, cqe):
        assert cqe.__class__ is Cqe and len(cqe) == len(Cqe._fields)
        assert tuple(cqe) == tuple(Cqe(*cqe))
        if arriving:  # receive side: the packet being placed completed
            qp, pkt = arriving[-1]
            want = (
                qp.qpn, pkt.opcode, pkt.length, self.sim.now, pkt.immediate,
                None, CqeStatus.SUCCESS, qp.generation, pkt.msg_seq,
                pkt.pkt_idx, pkt.chunk, pkt.ce,
            )
            assert pkt.msg_seq is not None and pkt.pkt_idx is not None
            seen["recv"] += 1
            seen["ce"] += pkt.ce
        else:  # send side: the oldest signaled WR of that QP left the wire
            wr, generation = posted[cqe.qpn].popleft()
            want = (
                cqe.qpn, Opcode.WRITE_ONLY, wr.length, self.sim.now, None,
                wr.wr_id, CqeStatus.SUCCESS, generation, wr.msg_seq,
                wr.pkt_idx, wr.chunk, False,
            )
            assert wr.msg_seq is not None and wr.chunk is not None
            seen["send"] += 1
        assert tuple(cqe) == want
        push(self, cqe)

    monkeypatch.setattr(UcQp, "post_send", recording_post_send)
    monkeypatch.setattr(UcQp, "on_packet", recording_on_packet)
    monkeypatch.setattr(CompletionQueue, "push", checked_push)

    pair = make_sdr_pair(drop=0.02, ecn_threshold_bytes=4 * KiB, seed=3)
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

