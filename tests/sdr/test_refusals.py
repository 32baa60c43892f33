"""What the SDR API refuses, and the edges of what it accepts.

Each refusal is a call a user can make: it raises at the call, before any
state moves, with the error type the API documents.
"""

import pytest

from repro.common.errors import ConfigError, SdrStateError
from repro.common.units import KiB
from repro.sdr.imm import ImmLayout
from repro.sdr.qp import SdrRecvWr, SdrSendWr

from tests.conftest import make_sdr_pair


class TestWorkRequests:
    def test_a_payload_must_match_the_declared_length(self):
        with pytest.raises(ConfigError, match="payload length 3 != declared 4"):
            SdrSendWr(length=4, payload=b"abc")

    @pytest.mark.parametrize("user_imm", [-1, 2**32])
    def test_a_user_immediate_must_fit_32_bits(self, user_imm):
        with pytest.raises(ConfigError, match=f"got {user_imm}"):
            SdrSendWr(length=4, user_imm=user_imm)

    def test_an_empty_receive_is_refused(self, sdr_pair):
        mr = sdr_pair.ctx_b.mr_reg(4 * KiB)
        with pytest.raises(ConfigError, match="recv length must be > 0"):
            SdrRecvWr(mr=mr, length=0)

    def test_an_empty_send_is_refused_at_post(self, sdr_pair):
        with pytest.raises(ConfigError, match="send length must be > 0"):
            sdr_pair.qp_a.send_post(SdrSendWr(length=0))


class TestContext:
    def test_an_empty_memory_region_is_refused(self, sdr_pair):
        with pytest.raises(ConfigError, match="MR length must be > 0"):
            sdr_pair.ctx_b.mr_reg(0)


class TestQp:
    def test_a_stream_piece_must_carry_its_length(self, sdr_pair):
        hdl = sdr_pair.qp_a.send_stream_start(SdrSendWr(length=8 * KiB))
        with pytest.raises(ConfigError, match="payload length mismatch"):
            sdr_pair.qp_a.send_stream_continue(hdl, 0, 4 * KiB, b"x")
        assert hdl.packets_posted == 0

    def test_a_receive_longer_than_a_message_is_refused(self):
        pair = make_sdr_pair(max_message=64 * KiB)
        mr = pair.ctx_b.mr_reg(128 * KiB)
        with pytest.raises(ConfigError, match="exceeds max message size"):
            pair.qp_b.recv_post(SdrRecvWr(mr=mr, length=128 * KiB))
        # Nothing was taken: the next receive gets the first seq.
        assert pair.qp_b.recv_post(SdrRecvWr(mr=mr, length=64 * KiB)).seq == 0

    def test_a_completed_receive_cannot_be_abandoned(self, sdr_pair):
        mr = sdr_pair.ctx_b.mr_reg(8 * KiB)
        rh = sdr_pair.qp_b.recv_post(SdrRecvWr(mr=mr, length=8 * KiB))
        rh.complete()
        with pytest.raises(SdrStateError, match="already completed"):
            sdr_pair.qp_b.recv_abandon(rh)

    def test_waiting_on_a_message_already_received_returns_at_once(
        self, sdr_pair
    ):
        p = sdr_pair
        mr = p.ctx_b.mr_reg(16 * KiB)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=16 * KiB))
        p.qp_a.send_post(SdrSendWr(length=16 * KiB))
        p.sim.run()
        assert rh.all_chunks_received()
        assert rh.wait_all_chunks().triggered


class TestImmLayoutWithoutUserImmediate:
    def test_no_fragments_and_every_fragment_zero(self):
        layout = ImmLayout(msg_id_bits=10, offset_bits=22, user_imm_bits=0)
        assert layout.user_fragments == 0
        assert layout.user_fragment_of(0xDEADBEEF, 3) == 0
        assert layout.decode(layout.encode(5, 7)) == (5, 7, 0)
