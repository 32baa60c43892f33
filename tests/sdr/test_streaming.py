"""Streaming sends: offsets, retransmission, completion semantics."""

import pytest

from repro.cc import Pacer, StaticRateController
from repro.common.errors import ConfigError, SdrStateError
from repro.common.units import KiB
from repro.sdr.qp import SdrRecvWr, SdrSendWr

from tests.conftest import make_sdr_pair


class TestStreaming:
    def test_chunks_land_at_offsets(self, sdr_pair):
        p = sdr_pair
        size = 32 * KiB
        buf = bytearray(size)
        mr = p.ctx_b.mr_reg(size, data=buf)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        sh = p.qp_a.send_stream_start(SdrSendWr(length=size))
        # Send chunks out of order: 3rd, 1st, 4th, 2nd.
        chunk = 8 * KiB
        pieces = [bytes([i + 1]) * chunk for i in range(4)]
        for idx in (2, 0, 3, 1):
            p.qp_a.send_stream_continue(sh, idx * chunk, chunk, pieces[idx])
        p.qp_a.send_stream_end(sh)
        p.sim.run(rh.wait_all_chunks())
        assert bytes(buf) == b"".join(pieces)
        p.sim.run()
        assert sh.poll()

    def test_poll_requires_end(self, sdr_pair):
        p = sdr_pair
        size = 8 * KiB
        mr = p.ctx_b.mr_reg(size)
        p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        sh = p.qp_a.send_stream_start(SdrSendWr(length=size))
        p.qp_a.send_stream_continue(sh, 0, size)
        p.sim.run(until=p.channel.rtt * 3)
        assert not sh.poll()  # all injected, but stream not ended
        p.qp_a.send_stream_end(sh)
        assert sh.poll()

    def test_retransmission_does_not_double_count(self, sdr_pair):
        """Re-sending a chunk (SR-style) leaves the bitmap consistent."""
        p = sdr_pair
        size = 16 * KiB
        mr = p.ctx_b.mr_reg(size)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        sh = p.qp_a.send_stream_start(SdrSendWr(length=size))
        for _ in range(3):  # same range three times
            p.qp_a.send_stream_continue(sh, 0, size)
        p.qp_a.send_stream_end(sh)
        p.sim.run(rh.wait_all_chunks())
        p.sim.run()
        assert rh.bitmap().count() == rh.nchunks
        assert rh.packet_bitmap.count() == rh.npackets

    def test_offset_must_be_mtu_aligned(self, sdr_pair):
        p = sdr_pair
        sh = p.qp_a.send_stream_start(SdrSendWr(length=16 * KiB))
        with pytest.raises(ConfigError):
            p.qp_a.send_stream_continue(sh, 1, 4 * KiB)

    def test_range_must_fit_stream(self, sdr_pair):
        p = sdr_pair
        sh = p.qp_a.send_stream_start(SdrSendWr(length=16 * KiB))
        with pytest.raises(ConfigError):
            p.qp_a.send_stream_continue(sh, 12 * KiB, 8 * KiB)

    def test_continue_after_end_rejected(self, sdr_pair):
        p = sdr_pair
        sh = p.qp_a.send_stream_start(SdrSendWr(length=8 * KiB))
        p.qp_a.send_stream_end(sh)
        with pytest.raises(SdrStateError):
            p.qp_a.send_stream_continue(sh, 0, 8 * KiB)
        with pytest.raises(SdrStateError):
            p.qp_a.send_stream_end(sh)

    def test_streaming_user_immediate(self, sdr_pair):
        """Streaming sends carry the user immediate across their packets."""
        p = sdr_pair
        size = 64 * KiB  # 16 packets >= 8 fragments
        mr = p.ctx_b.mr_reg(size)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        sh = p.qp_a.send_stream_start(
            SdrSendWr(length=size, user_imm=0x0BADF00D)
        )
        p.qp_a.send_stream_continue(sh, 0, size)
        p.qp_a.send_stream_end(sh)
        p.sim.run(rh.wait_all_chunks())
        assert rh.imm_get() == 0x0BADF00D

    def test_continue_on_one_shot_rejected(self, sdr_pair):
        p = sdr_pair
        mr = p.ctx_b.mr_reg(8 * KiB)
        p.qp_b.recv_post(SdrRecvWr(mr=mr, length=8 * KiB))
        sh = p.qp_a.send_post(SdrSendWr(length=8 * KiB))
        with pytest.raises(SdrStateError):
            p.qp_a.send_stream_continue(sh, 0, 8 * KiB)


class TestStreamingUnderLoss:
    def test_chunk_level_retransmits_complete_the_bitmap(self):
        """SR-style recovery by hand: re-send exactly the missing chunks."""
        p = make_sdr_pair(drop=0.2, seed=11)
        size = 64 * KiB
        chunk = 8 * KiB
        mr = p.ctx_b.mr_reg(size)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        sh = p.qp_a.send_stream_start(SdrSendWr(length=size))
        p.qp_a.send_stream_continue(sh, 0, size)
        p.sim.run(until=p.sim.now + 4 * p.channel.rtt)
        assert rh.bitmap().count() < rh.nchunks  # 20% drop lost something
        rounds = 0
        while rh.bitmap().count() < rh.nchunks and rounds < 50:
            rounds += 1
            for idx in range(rh.nchunks):
                if not rh.bitmap().as_array()[idx]:
                    p.qp_a.send_stream_continue(
                        sh, idx * chunk, chunk, attempt=rounds
                    )
            p.sim.run(until=p.sim.now + 4 * p.channel.rtt)
        assert rh.bitmap().count() == rh.nchunks
        p.qp_a.send_stream_end(sh)
        p.sim.run()
        assert sh.poll()

    def test_partial_ranges_fill_independently(self):
        p = make_sdr_pair(drop=0.3, seed=5)
        size = 32 * KiB
        chunk = 8 * KiB
        mr = p.ctx_b.mr_reg(size)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        sh = p.qp_a.send_stream_start(SdrSendWr(length=size))
        # Hammer each chunk range separately until it lands.
        for idx in range(rh.nchunks):
            attempt = 0
            while not rh.bitmap().as_array()[idx] and attempt < 50:
                p.qp_a.send_stream_continue(
                    sh, idx * chunk, chunk, attempt=attempt
                )
                attempt += 1
                p.sim.run(until=p.sim.now + 2 * p.channel.rtt)
            assert rh.bitmap().as_array()[idx]
        assert rh.bitmap().count() == rh.nchunks


class TestStreamingUnderPacing:
    def test_paced_stream_completes_at_the_pacer_rate(self):
        p = make_sdr_pair()
        rate = 1e9  # 1 Gbit/s on a 100 Gbit/s wire: pacing dominates
        pacer = Pacer(p.sim, StaticRateController(rate), name="t")
        p.qp_a.attach_pacer(pacer)
        size = 64 * KiB
        mr = p.ctx_b.mr_reg(size)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        sh = p.qp_a.send_stream_start(SdrSendWr(length=size))
        start = p.sim.now
        p.qp_a.send_stream_continue(sh, 0, size)
        p.qp_a.send_stream_end(sh)
        p.sim.run(rh.wait_all_chunks())
        elapsed = p.sim.now - start
        # Injection alone needs size/rate seconds (minus the initial burst).
        floor = (size - pacer.burst_bytes) * 8 / rate
        assert elapsed >= floor
        m = p.sim.telemetry.metrics
        assert m.value("cc.t.pacing_stalls") > 0
        assert m.value("cc.t.paced_packets") == size // (4 * KiB)

    def test_unpaced_controller_adds_no_delay(self):
        p = make_sdr_pair()
        pacer = Pacer(p.sim, StaticRateController(), name="t")
        p.qp_a.attach_pacer(pacer)
        size = 64 * KiB
        mr = p.ctx_b.mr_reg(size)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        sh = p.qp_a.send_stream_start(SdrSendWr(length=size))
        p.qp_a.send_stream_continue(sh, 0, size)
        p.qp_a.send_stream_end(sh)
        p.sim.run(rh.wait_all_chunks())
        m = p.sim.telemetry.metrics
        assert m.value("cc.t.pacing_stalls") == 0
