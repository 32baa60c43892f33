"""UD QP: datagram delivery, MTU enforcement, recv handlers."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import KiB
from repro.verbs.qp import SendWr, UdQp

from tests.verbs.conftest import cq


def make_pair(wire):
    qa = UdQp(wire.dev_a, send_cq=cq(wire, "a"), recv_cq=cq(wire, "a.r"))
    qb = UdQp(wire.dev_b, send_cq=cq(wire, "b"), recv_cq=cq(wire, "b.r"))
    qa.connect(qb.info())
    qb.connect(qa.info())
    return qa, qb


class TestDatagrams:
    def test_payload_and_immediate_delivered(self, wire):
        qa, qb = make_pair(wire)
        got = []
        qb.attach_recv_handler(lambda p, imm, src: got.append((p, imm, src)))
        qa.post_send(SendWr(length=5, payload=b"hello", immediate=99))
        wire.sim.run()
        assert got == [(b"hello", 99, qa.qpn)]

    def test_recv_cqe_generated(self, wire):
        qa, qb = make_pair(wire)
        qa.post_send(SendWr(length=4, payload=b"ping", immediate=1))
        wire.sim.run()
        cqes = qb.recv_cq.poll(10)
        assert len(cqes) == 1
        assert cqes[0].immediate == 1

    def test_handled_datagram_is_counted_but_not_queued(self, wire):
        # The handler is the consumer: an entry left on the CQ as well
        # would never be polled by anyone.
        qa, qb = make_pair(wire)
        qb.attach_recv_handler(lambda p, imm, src: None)
        for i in range(3):
            qa.post_send(SendWr(length=4, payload=b"ping", immediate=i))
        wire.sim.run()
        assert len(qb.recv_cq.entries) == 0
        assert qb.recv_cq.sim.telemetry.metrics.value(f"cq.{qb.recv_cq.name}.cqes_posted") == 3

    def test_mtu_enforced(self, wire):
        qa, qb = make_pair(wire)
        with pytest.raises(ConfigError):
            qa.post_send(SendWr(length=8 * KiB))

    def test_connectionless_send_to(self, wire):
        qa = UdQp(wire.dev_a, send_cq=cq(wire), recv_cq=cq(wire))
        qb = UdQp(wire.dev_b, send_cq=cq(wire), recv_cq=cq(wire))
        got = []
        qb.attach_recv_handler(lambda p, imm, src: got.append(imm))
        # No connect(): explicit destination addressing.
        qa.post_send_to(SendWr(length=4, payload=b"dgrm", immediate=3), qb.qpn, "b")
        wire.sim.run()
        assert got == [3]

    def test_send_cqe_when_signaled(self, wire):
        qa, qb = make_pair(wire)
        qa.post_send(SendWr(length=4, payload=b"sig!", wr_id=11))
        wire.sim.run()
        cqes = qa.send_cq.poll(10)
        assert [c.wr_id for c in cqes] == [11]

    def test_unsignaled_send_skips_cqe(self, wire):
        qa, qb = make_pair(wire)
        qa.post_send(SendWr(length=4, payload=b"nosg", signaled=False))
        wire.sim.run()
        assert len(qa.send_cq.poll(10)) == 0
