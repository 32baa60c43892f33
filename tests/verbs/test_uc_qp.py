"""UC QP semantics -- including the paper's Section 3.2.1 motivation:
multi-packet UC messages die on ePSN mismatch, single-packet writes do not.
"""

import pytest

from repro.common.errors import ConfigError, SdrStateError
from repro.common.units import KiB
from repro.net.packet import Opcode, Packet
from repro.verbs.mr import MemoryRegion
from repro.verbs.qp import QpState, SendWr, UcQp

from tests.verbs.conftest import cq, make_wire


def make_pair(wire):
    qa = UcQp(wire.dev_a, send_cq=cq(wire, "a.s"), recv_cq=cq(wire, "a.r"))
    qb = UcQp(wire.dev_b, send_cq=cq(wire, "b.s"), recv_cq=cq(wire, "b.r"))
    qa.connect(qb.info())
    qb.connect(qa.info())
    return qa, qb


class TestBasicWrites:
    def test_single_packet_write_places_data(self, wire):
        qa, qb = make_pair(wire)
        buf = bytearray(4 * KiB)
        mr = MemoryRegion(4 * KiB, data=buf)
        wire.dev_b.reg_mr(mr)
        qa.post_send(
            SendWr(length=8, rkey=mr.rkey, remote_offset=16, payload=b"sdr-rdma")
        )
        wire.sim.run()
        assert bytes(buf[16:24]) == b"sdr-rdma"

    def test_write_with_immediate_generates_cqe(self, wire):
        qa, qb = make_pair(wire)
        mr = MemoryRegion(4 * KiB)
        wire.dev_b.reg_mr(mr)
        qa.post_send(
            SendWr(length=100, rkey=mr.rkey, immediate=0xABCD)
        )
        wire.sim.run()
        cqes = qb.recv_cq.poll(10)
        assert len(cqes) == 1
        assert cqes[0].immediate == 0xABCD
        assert cqes[0].byte_len == 100

    def test_write_without_immediate_is_silent(self, wire):
        qa, qb = make_pair(wire)
        mr = MemoryRegion(4 * KiB)
        wire.dev_b.reg_mr(mr)
        qa.post_send(SendWr(length=100, rkey=mr.rkey))
        wire.sim.run()
        assert len(qb.recv_cq.poll(10)) == 0

    def test_send_cqe_on_injection(self, wire):
        qa, qb = make_pair(wire)
        mr = MemoryRegion(64 * KiB)
        wire.dev_b.reg_mr(mr)
        qa.post_send(SendWr(length=64 * KiB, rkey=mr.rkey, wr_id=7))
        wire.sim.run()
        cqes = qa.send_cq.poll(10)
        assert len(cqes) == 1
        assert cqes[0].wr_id == 7

    def test_multi_packet_fragmentation(self, wire):
        qa, qb = make_pair(wire)
        buf = bytearray(64 * KiB)
        mr = MemoryRegion(64 * KiB, data=buf)
        wire.dev_b.reg_mr(mr)
        payload = bytes(range(256)) * 256  # 64 KiB
        qa.post_send(
            SendWr(length=64 * KiB, rkey=mr.rkey, payload=payload, immediate=1)
        )
        wire.sim.run()
        assert bytes(buf) == payload
        cqes = qb.recv_cq.poll(10)
        assert len(cqes) == 1
        assert cqes[0].byte_len == 64 * KiB

    def test_unconnected_qp_rejects_send(self, wire):
        qp = UcQp(wire.dev_a, send_cq=cq(wire), recv_cq=cq(wire))
        with pytest.raises(SdrStateError):
            qp.post_send(SendWr(length=8))

    def test_errored_qp_rejects_send(self, wire):
        qa, _ = make_pair(wire)
        qa.state = QpState.ERROR
        with pytest.raises(SdrStateError, match="not in READY state"):
            qa.post_send(SendWr(length=8))
        assert not qa._sq


class TestEpsnSemantics:
    """The Section 3.2.1 behaviours, driven with raw injected packets."""

    def _recv_qp(self, wire):
        qb = UcQp(wire.dev_b, send_cq=cq(wire), recv_cq=cq(wire, "rcq"))
        buf = bytearray(64 * KiB)
        mr = MemoryRegion(64 * KiB, data=buf)
        wire.dev_b.reg_mr(mr)
        return qb, mr, buf

    def _packet(self, qp, mr, *, op, psn, offset=0, payload=b"x" * 8, imm=None):
        return Packet(
            dst_qpn=qp.qpn,
            opcode=op,
            psn=psn,
            rkey=mr.rkey,
            remote_offset=offset,
            length=len(payload),
            payload=payload,
            immediate=imm,
        )

    def test_in_order_multipacket_message_completes(self, wire):
        qb, mr, buf = self._recv_qp(wire)
        qb.on_packet(self._packet(qb, mr, op=Opcode.WRITE_FIRST, psn=0))
        qb.on_packet(self._packet(qb, mr, op=Opcode.WRITE_MIDDLE, psn=1, offset=8))
        qb.on_packet(
            self._packet(qb, mr, op=Opcode.WRITE_LAST_IMM, psn=2, offset=16, imm=5)
        )
        cqes = qb.recv_cq.poll(10)
        assert len(cqes) == 1
        assert cqes[0].byte_len == 24
        assert qb.messages_aborted == 0

    def test_psn_gap_aborts_whole_message(self, wire):
        # Drop the middle packet: LAST arrives with wrong ePSN -> no CQE.
        qb, mr, buf = self._recv_qp(wire)
        qb.on_packet(self._packet(qb, mr, op=Opcode.WRITE_FIRST, psn=0))
        qb.on_packet(
            self._packet(qb, mr, op=Opcode.WRITE_LAST_IMM, psn=2, offset=16, imm=5)
        )
        assert len(qb.recv_cq.poll(10)) == 0
        assert qb.messages_aborted == 1

    def test_middle_without_first_is_dropped(self, wire):
        qb, mr, buf = self._recv_qp(wire)
        qb.on_packet(self._packet(qb, mr, op=Opcode.WRITE_MIDDLE, psn=5))
        assert len(qb.recv_cq.poll(10)) == 0
        assert bytes(buf[:8]) == b"\x00" * 8

    def test_single_packet_writes_tolerate_reordering(self, wire):
        # The paper's strategy: one WRITE_ONLY_IMM per packet survives any
        # arrival order.
        qb, mr, buf = self._recv_qp(wire)
        for psn in (3, 1, 0, 2):
            qb.on_packet(
                self._packet(
                    qb, mr, op=Opcode.WRITE_ONLY_IMM, psn=psn,
                    offset=8 * psn, payload=bytes([psn]) * 8, imm=psn,
                )
            )
        cqes = qb.recv_cq.poll(10)
        assert len(cqes) == 4
        assert bytes(buf[:32]) == b"".join(bytes([p]) * 8 for p in range(4))
        assert qb.messages_aborted == 0  # nothing was in flight

    def test_single_packet_write_aborts_only_a_message_in_flight(self, wire):
        qb, mr, buf = self._recv_qp(wire)
        qb.on_packet(self._packet(qb, mr, op=Opcode.WRITE_FIRST, psn=0))
        for psn in (1, 2):
            qb.on_packet(
                self._packet(qb, mr, op=Opcode.WRITE_ONLY_IMM, psn=psn, imm=psn)
            )
        assert qb.messages_aborted == 1
        assert [c.immediate for c in qb.recv_cq.poll(10)] == [1, 2]

    def test_first_resynchronizes_after_abort(self, wire):
        qb, mr, buf = self._recv_qp(wire)
        # Aborted message...
        qb.on_packet(self._packet(qb, mr, op=Opcode.WRITE_FIRST, psn=0))
        qb.on_packet(self._packet(qb, mr, op=Opcode.WRITE_LAST_IMM, psn=2, imm=1))
        # ...new message resyncs via FIRST.
        qb.on_packet(self._packet(qb, mr, op=Opcode.WRITE_FIRST, psn=7, offset=0))
        qb.on_packet(
            self._packet(qb, mr, op=Opcode.WRITE_LAST_IMM, psn=8, offset=8, imm=2)
        )
        cqes = qb.recv_cq.poll(10)
        assert len(cqes) == 1
        assert cqes[0].immediate == 2


class TestEndToEndReordering:
    def test_chunked_uc_writes_lose_whole_chunks_under_jitter(self):
        """Ablation: naive chunk-sized UC writes vs per-packet writes.

        On a jittery path, multi-packet chunk writes are aborted by PSN
        mismatches while per-packet writes all land -- the design argument
        for SDR's one-write-per-packet backend.
        """
        # Naive: 16-packet chunk writes.
        wire = make_wire(jitter=2.0, distance_km=200.0)
        qa, qb = make_pair(wire)
        mr = MemoryRegion(1024 * KiB)
        wire.dev_b.reg_mr(mr)
        for i in range(16):
            qa.post_send(
                SendWr(
                    length=64 * KiB, rkey=mr.rkey, remote_offset=i * 64 * KiB,
                    immediate=i,
                )
            )
        wire.sim.run()
        naive_done = len(qb.recv_cq.poll(100))

        # SDR-style: single-packet writes.
        wire2 = make_wire(jitter=2.0, distance_km=200.0)
        qa2, qb2 = make_pair(wire2)
        mr2 = MemoryRegion(1024 * KiB)
        wire2.dev_b.reg_mr(mr2)
        npackets = 16 * 16
        for i in range(npackets):
            qa2.post_send(
                SendWr(
                    length=4 * KiB, rkey=mr2.rkey, remote_offset=i * 4 * KiB,
                    immediate=i,
                )
            )
        wire2.sim.run()
        per_packet_done = len(qb2.recv_cq.poll(1000))

        assert per_packet_done == npackets  # no losses, ever
        assert naive_done < 16  # at least one chunk aborted by reordering


class TestSendWrRecord:
    """``SendWr`` has a hand-written constructor; its validations are kept."""

    def test_non_positive_length_rejected(self):
        for length in (0, -4):
            with pytest.raises(ConfigError, match="WR length must be > 0"):
                SendWr(length=length)

    def test_payload_length_must_match(self):
        with pytest.raises(ConfigError, match="payload length 5 != WR length 4"):
            SendWr(length=4, payload=b"abcde")

    def test_positional_order_is_the_slot_order(self):
        # Hot sites build WRs positionally (docs/simulation.md).
        wr = SendWr(5, 1, 2, b"hello", 3, 4, False, 6, 7, 8, 9, 10)
        assert [getattr(wr, name) for name in SendWr.__slots__] == [
            5, 1, 2, b"hello", 3, 4, False, 6, 7, 8, 9, 10,
        ]

    def test_defaults(self):
        wr = SendWr(8)
        assert [getattr(wr, name) for name in SendWr.__slots__] == [
            8, 0, 0, None, None, None, True, None, None, None, 0, None,
        ]
