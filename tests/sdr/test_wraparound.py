"""Message-ID space wraparound (Section 3.3.2).

The 10-bit message ID wraps every 1024 messages; generations must rotate so
that late packets from a previous use of the same slot are filtered.  These
tests run enough messages through one QP pair to wrap the ID space and
verify data integrity and generation rotation across the boundary.
"""

import pytest

from repro.common.config import ChannelConfig, SdrConfig
from repro.common.errors import ResourceError
from repro.common.units import KiB
from repro.sdr.qp import SdrRecvWr, SdrSendWr
from repro.stack import build_pair
from repro.telemetry import RingBufferSink, Telemetry

from tests.conftest import make_sdr_pair


class TestWraparound:
    def test_sequence_to_slot_mapping_wraps(self):
        pair = make_sdr_pair()
        qp = pair.qp_a
        ids = qp.config.max_message_ids
        gens = qp.config.generations
        seen = set()
        for seq in range(ids * gens + 5):
            msg_id, gen = qp._slot_of(seq)
            assert 0 <= msg_id < ids
            assert 0 <= gen < gens
            seen.add((msg_id, gen))
        # Every (slot, generation) combination is eventually used.
        assert len(seen) == ids * gens

    @pytest.mark.slow
    def test_thousands_of_messages_cross_wraparound(self):
        """Run 1.2x the ID space through one QP pair; every message lands
        in the right buffer with the right payload marker."""
        pair = make_sdr_pair(
            bandwidth_bps=400e9,
            distance_km=0.1,
            chunk=4 * KiB,
            max_message=4 * KiB,
            channels=2,
            inflight=8,
        )
        ids = pair.qp_a.config.max_message_ids
        n = ids + ids // 4  # 1280 messages -> wraps into generation 1
        size = 4 * KiB
        buf = bytearray(size)
        mr = pair.ctx_b.mr_reg(size, data=buf)
        for i in range(n):
            marker = bytes([i % 251]) * size
            rh = pair.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
            pair.qp_a.send_post(SdrSendWr(length=size, payload=marker))
            pair.sim.run(rh.wait_all_chunks())
            assert bytes(buf) == marker, f"message {i} corrupted"
            rh.complete()
        # The QP really rotated into the next generation.
        msg_id, gen = pair.qp_b._slot_of(n - 1)
        assert gen == 1
        received = f"sdr.{pair.ctx_b.device.name}.messages_received"
        assert pair.sim.telemetry.metrics.value(received) == n

    def test_a_full_table_refuses_then_slot_0_serves_generation_1(self):
        """With every message ID posted the receive table is full: the next
        post is refused (the table-full check fires before the in-flight
        wrap check, see TestGenerationRollover), and completing slot 0 frees
        exactly that slot for the next generation."""
        pair = make_sdr_pair(chunk=4 * KiB, max_message=4 * KiB, inflight=1024)
        ids = pair.qp_b.config.max_message_ids
        mr = pair.ctx_b.mr_reg(4 * KiB)
        handles = [
            pair.qp_b.recv_post(SdrRecvWr(mr=mr, length=4 * KiB))
            for _ in range(ids)
        ]
        with pytest.raises(ResourceError, match=r"receive table full \(1024 in flight\)"):
            pair.qp_b.recv_post(SdrRecvWr(mr=mr, length=4 * KiB))
        # Completing slot 0 frees exactly that slot for reuse.
        handles[0].complete()
        rh = pair.qp_b.recv_post(SdrRecvWr(mr=mr, length=4 * KiB))
        assert rh.msg_id == 0
        assert rh.generation == 1


def _tiny_pair(ring=None):
    """Four message IDs (``msg_id_bits=2``), two generations, 4 KiB
    messages of one chunk."""
    sdr = SdrConfig(
        msg_id_bits=2, offset_bits=26, chunk_bytes=4 * KiB,
        max_message_bytes=4 * KiB, channels=1, generations=2,
        inflight_messages=4,
    )
    channel = ChannelConfig(bandwidth_bps=100e9, distance_km=1.0)
    telemetry = None
    if ring is not None:
        telemetry = Telemetry(trace=True, trace_sinks=[ring])
    return build_pair(channel, sdr, telemetry=telemetry)


class TestGenerationRollover:
    def test_both_sides_roll_into_the_next_generation(self):
        """The fifth message reuses message ID 0 under generation 1, on the
        send side and on the receive side, and lands intact."""
        ring = RingBufferSink()
        pair = _tiny_pair(ring)
        buf = bytearray(4 * KiB)
        mr = pair.ctx_b.mr_reg(4 * KiB, data=buf)
        for i in range(5):
            marker = bytes([i + 1]) * (4 * KiB)
            rh = pair.qp_b.recv_post(SdrRecvWr(mr=mr, length=4 * KiB))
            hdl = pair.qp_a.send_post(SdrSendWr(length=4 * KiB, payload=marker))
            pair.sim.run(rh.wait_all_chunks())
            assert bytes(buf) == marker
            rh.complete()
        assert (hdl.msg_id, hdl.generation) == (0, 1)
        assert (rh.msg_id, rh.generation) == (0, 1)
        metrics = pair.sim.telemetry.metrics
        for ctx in (pair.ctx_a, pair.ctx_b):
            name = f"sdr.{ctx.device.name}.generation_rollovers"
            assert metrics.value(name) == 1
        rollovers = [
            (e.args["side"], e.args["generation"])
            for e in ring.events if e.name == "generation_rollover"
        ]
        assert sorted(rollovers) == [("recv", 1), ("send", 1)]

    def test_a_receive_onto_a_slot_still_in_flight_is_refused(self):
        """Message 0 is still in flight when message 4 would reuse its
        ID: the table holds one entry, so it is the wrap check that
        refuses, not the table-full one."""
        pair = _tiny_pair()
        mr = pair.ctx_b.mr_reg(4 * KiB)
        handles = [
            pair.qp_b.recv_post(SdrRecvWr(mr=mr, length=4 * KiB))
            for _ in range(4)
        ]
        for rh in handles[1:]:
            rh.complete()
        with pytest.raises(ResourceError, match="wrapped around"):
            pair.qp_b.recv_post(SdrRecvWr(mr=mr, length=4 * KiB))
        handles[0].complete()
        rh = pair.qp_b.recv_post(SdrRecvWr(mr=mr, length=4 * KiB))
        assert (rh.msg_id, rh.generation) == (0, 1)
