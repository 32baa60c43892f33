"""SDR end-to-end datapath: one-shot sends, bitmaps, matching, drops."""

import numpy as np
import pytest

from repro.common.errors import ConfigError, ResourceError, SdrStateError
from repro.common.units import KiB
from repro.sdr.qp import SdrRecvWr, SdrSendWr

from tests.conftest import all_of, make_sdr_pair


def payload_of(size, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size, dtype=np.uint8).tobytes()


class TestOneShot:
    def test_full_delivery_and_data_integrity(self, sdr_pair):
        p = sdr_pair
        size = 64 * KiB
        data = payload_of(size)
        buf = bytearray(size)
        mr = p.ctx_b.mr_reg(size, data=buf)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        sh = p.qp_a.send_post(SdrSendWr(length=size, payload=data))
        p.sim.run(rh.wait_all_chunks())
        assert rh.bitmap().all_set()
        assert bytes(buf) == data
        p.sim.run()
        assert sh.poll()

    def test_user_immediate_reconstructed(self, sdr_pair):
        p = sdr_pair
        size = 64 * KiB  # 16 packets >= 8 fragments
        mr = p.ctx_b.mr_reg(size)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        p.qp_a.send_post(SdrSendWr(length=size, user_imm=0xCAFEBABE))
        p.sim.run(rh.wait_all_chunks())
        assert rh.imm_get() == 0xCAFEBABE

    def test_imm_none_before_ready(self, sdr_pair):
        p = sdr_pair
        mr = p.ctx_b.mr_reg(64 * KiB)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=64 * KiB))
        assert rh.imm_get() is None

    def test_user_imm_requires_enough_packets(self, sdr_pair):
        p = sdr_pair
        # 4 KiB = 1 packet < 8 fragments.
        with pytest.raises(ConfigError):
            p.qp_a.send_post(SdrSendWr(length=4 * KiB, user_imm=1))

    def test_order_based_matching(self, sdr_pair):
        """Send1 lands in Recv1, Send2 in Recv2 -- no metadata exchanged."""
        p = sdr_pair
        size = 16 * KiB
        bufs = [bytearray(size), bytearray(size)]
        handles = []
        for buf in bufs:
            mr = p.ctx_b.mr_reg(size, data=buf)
            handles.append(p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size)))
        first, second = payload_of(size, 1), payload_of(size, 2)
        p.qp_a.send_post(SdrSendWr(length=size, payload=first))
        p.qp_a.send_post(SdrSendWr(length=size, payload=second))
        p.sim.run(all_of(p.sim, [h.wait_all_chunks() for h in handles]))
        assert bytes(bufs[0]) == first
        assert bytes(bufs[1]) == second

    def test_message_not_multiple_of_chunk(self, sdr_pair):
        p = sdr_pair
        size = 20 * KiB  # 2.5 chunks of 8 KiB
        data = payload_of(size)
        buf = bytearray(size)
        mr = p.ctx_b.mr_reg(size, data=buf)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        p.qp_a.send_post(SdrSendWr(length=size, payload=data))
        p.sim.run(rh.wait_all_chunks())
        assert rh.nchunks == 3
        assert bytes(buf) == data

    def test_send_blocks_until_cts(self, sdr_pair):
        """Order-based matching: sends wait for the receiver's post."""
        p = sdr_pair
        size = 8 * KiB
        sh = p.qp_a.send_post(SdrSendWr(length=size))
        p.sim.run(until=p.channel.rtt * 4)
        assert not sh.poll()  # still gated on CTS
        mr = p.ctx_b.mr_reg(size)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        p.sim.run(rh.wait_all_chunks())
        assert rh.bitmap().all_set()


class TestPartialCompletion:
    def test_bitmap_shows_only_received_chunks(self):
        """The core SDR semantic: drops surface as missing bitmap bits."""
        p = make_sdr_pair(drop=0.08, seed=21)
        size = 256 * KiB  # 32 chunks of 8 KiB
        mr = p.ctx_b.mr_reg(size)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        p.qp_a.send_post(SdrSendWr(length=size))
        # Run long enough for all surviving packets to land.
        p.sim.run(until=p.channel.rtt * 10)
        dropped = p.fabric.links[("dc-a", "dc-b")].forward.stats.packets_dropped
        assert dropped > 0
        assert not rh.bitmap().all_set()
        assert 0 < rh.bitmap().count() < rh.nchunks
        # Every missing chunk contains at least one missing packet.
        pkt_arr = rh.packet_bitmap.as_array()
        ppc = p.qp_b.config.packets_per_chunk
        for chunk in rh.bitmap().missing():
            lo = int(chunk) * ppc
            hi = min(lo + ppc, rh.npackets)
            assert not pkt_arr[lo:hi].all()
        # And every set chunk is fully backed by received packets.
        for chunk in np.flatnonzero(rh.bitmap().as_array()):
            lo = int(chunk) * ppc
            hi = min(lo + ppc, rh.npackets)
            assert pkt_arr[lo:hi].all()

    def test_chunk_publishes_only_when_all_packets_arrive(self, sdr_pair):
        p = sdr_pair
        # Stream a single packet of a 2-packet chunk.
        size = 8 * KiB
        mr = p.ctx_b.mr_reg(size)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        sh = p.qp_a.send_stream_start(SdrSendWr(length=size))
        p.qp_a.send_stream_continue(sh, 0, 4 * KiB)
        p.sim.run(until=p.channel.rtt * 3)
        assert rh.packet_bitmap.count() == 1
        assert rh.bitmap().count() == 0  # frontend chunk not yet complete
        p.qp_a.send_stream_continue(sh, 4 * KiB, 4 * KiB)
        p.qp_a.send_stream_end(sh)
        p.sim.run(rh.wait_all_chunks())
        assert rh.bitmap().count() == 1


class TestResourceLimits:
    def test_inflight_limit(self):
        p = make_sdr_pair(inflight=2)
        mr = p.ctx_b.mr_reg(8 * KiB)
        p.qp_b.recv_post(SdrRecvWr(mr=mr, length=8 * KiB))
        p.qp_b.recv_post(SdrRecvWr(mr=mr, length=8 * KiB))
        with pytest.raises(ResourceError):
            p.qp_b.recv_post(SdrRecvWr(mr=mr, length=8 * KiB))

    def test_oversized_message_rejected(self, sdr_pair):
        p = sdr_pair
        too_big = p.qp_a.config.max_message_bytes + 1
        with pytest.raises(ConfigError):
            p.qp_a.send_post(SdrSendWr(length=too_big))

    def test_recv_range_must_fit_mr(self, sdr_pair):
        p = sdr_pair
        mr = p.ctx_b.mr_reg(8 * KiB)
        with pytest.raises(ConfigError):
            SdrRecvWr(mr=mr, length=16 * KiB)

    def test_unconnected_qp_rejected(self, sdr_pair):
        p = sdr_pair
        orphan = p.ctx_a.qp_create()
        with pytest.raises(SdrStateError):
            orphan.send_post(SdrSendWr(length=8 * KiB))

    def test_config_mismatch_rejected(self):
        from repro.common.config import SdrConfig

        p = make_sdr_pair(chunk=8 * KiB)
        # Fresh (unconnected) QPs with mismatched chunk sizes.
        qa = p.ctx_a.qp_create(SdrConfig(chunk_bytes=8 * KiB))
        qb = p.ctx_b.qp_create(SdrConfig(chunk_bytes=16 * KiB))
        with pytest.raises(ConfigError):
            qa.connect(qb.info_get())

    def test_double_connect_rejected(self, sdr_pair):
        with pytest.raises(SdrStateError):
            sdr_pair.qp_a.connect(sdr_pair.qp_b.info_get())
