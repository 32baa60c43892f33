"""Late-packet protection: NULL mkey discard + message-ID generations."""

import pytest

from repro.common.units import KiB
from repro.net.packet import Opcode
from repro.sdr.qp import SdrRecvWr, SdrSendWr
from repro.verbs.cq import Cqe

from tests.conftest import make_sdr_pair


class TestEarlyCompletion:
    def test_late_packets_discarded_after_complete(self):
        """Receiver completes early; in-flight packets must not touch the
        buffer (stage one: NULL mkey) nor the bitmaps (stage two)."""
        p = make_sdr_pair(distance_km=1000.0)  # long flight time
        size = 64 * KiB
        buf = bytearray(size)
        mr = p.ctx_b.mr_reg(size, data=buf)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        p.qp_a.send_post(SdrSendWr(length=size, payload=b"\xaa" * size))
        # Let the CTS reach the sender and packets get in flight, then
        # complete before anything arrives (one-way is ~3.3 ms).
        p.sim.run(until=p.channel.rtt * 0.75 + 1e-4)
        assert rh.bitmap().count() == 0
        rh.complete()
        snapshot = bytes(buf)
        p.sim.run(until=p.channel.rtt * 5)
        # Payloads were discarded by the NULL mkey...
        assert bytes(buf) == snapshot
        assert p.qp_b.root_table.null_mr.write_count > 0
        # ...and completions filtered before corrupting bitmaps.
        assert p.qp_b._m_late_cqes.value > 0
        assert rh.packet_bitmap.count() == 0

    def test_slot_reuse_after_complete(self):
        """A new receive on the same slot is clean after early completion."""
        p = make_sdr_pair(distance_km=1000.0, max_message=64 * KiB, inflight=2)
        size = 64 * KiB
        buf = bytearray(size)
        mr = p.ctx_b.mr_reg(size, data=buf)
        rh1 = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        p.qp_a.send_post(SdrSendWr(length=size, payload=b"\x11" * size))
        p.sim.run(until=p.channel.rtt * 0.75)
        rh1.complete()  # early completion; msg 0's packets still in flight
        # Post the next receive and send the next message.
        rh2 = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        p.qp_a.send_post(SdrSendWr(length=size, payload=b"\x22" * size))
        p.sim.run(rh2.wait_all_chunks())
        assert bytes(buf) == b"\x22" * size

    def test_double_complete_rejected(self, sdr_pair):
        from repro.common.errors import SdrStateError

        p = sdr_pair
        mr = p.ctx_b.mr_reg(8 * KiB)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=8 * KiB))
        p.qp_a.send_post(SdrSendWr(length=8 * KiB))
        p.sim.run(rh.wait_all_chunks())
        rh.complete()
        with pytest.raises(SdrStateError):
            rh.complete()


class TestGenerations:
    def test_slot_mapping_rotates_generations(self, sdr_pair):
        qp = sdr_pair.qp_a
        max_ids = qp.config.max_message_ids
        gens = qp.config.generations
        assert qp._slot_of(0) == (0, 0)
        assert qp._slot_of(max_ids) == (0, 1)
        assert qp._slot_of(max_ids * gens) == (0, 0)
        assert qp._slot_of(max_ids + 5) == (5, 1)

    def test_stale_generation_cqe_filtered(self, sdr_pair):
        """A completion delivered by an old-generation QP is discarded."""
        p = sdr_pair
        size = 8 * KiB
        mr = p.ctx_b.mr_reg(size)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        assert rh.generation == 0
        stale = Cqe(
            qpn=0,
            opcode=Opcode.WRITE_ONLY_IMM,
            byte_len=4 * KiB,
            timestamp=0.0,
            immediate=p.qp_b.layout.encode(rh.msg_id, 0, 0),
            generation=3,  # wrong generation
        )
        assert p.qp_b._process_data_cqe(stale) is False
        assert p.qp_b._m_late_cqes.value == 1
        assert rh.packet_bitmap.count() == 0

    def test_current_generation_cqe_accepted(self, sdr_pair):
        p = sdr_pair
        size = 8 * KiB
        mr = p.ctx_b.mr_reg(size)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        fresh = Cqe(
            qpn=0,
            opcode=Opcode.WRITE_ONLY_IMM,
            byte_len=4 * KiB,
            timestamp=0.0,
            immediate=p.qp_b.layout.encode(rh.msg_id, 0, 0),
            generation=rh.generation,
        )
        p.qp_b._process_data_cqe(fresh)
        assert rh.packet_bitmap.count() == 1

    def test_unknown_msg_id_filtered(self, sdr_pair):
        p = sdr_pair
        cqe = Cqe(
            qpn=0,
            opcode=Opcode.WRITE_ONLY_IMM,
            byte_len=4 * KiB,
            timestamp=0.0,
            immediate=p.qp_b.layout.encode(99, 0, 0),
            generation=0,
        )
        assert p.qp_b._process_data_cqe(cqe) is False
        assert p.qp_b._m_late_cqes.value == 1

    def test_out_of_range_packet_index_filtered(self, sdr_pair):
        p = sdr_pair
        size = 8 * KiB  # 2 packets
        mr = p.ctx_b.mr_reg(size)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        rogue = Cqe(
            qpn=0,
            opcode=Opcode.WRITE_ONLY_IMM,
            byte_len=4 * KiB,
            timestamp=0.0,
            immediate=p.qp_b.layout.encode(rh.msg_id, 500, 0),
            generation=rh.generation,
        )
        assert p.qp_b._process_data_cqe(rogue) is False
        assert rh.late_packets_filtered == 1
        assert rh.packet_bitmap.count() == 0
