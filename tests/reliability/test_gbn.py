"""Go-Back-N over SDR: correctness and the SR-beats-GBN comparison."""

import numpy as np
import pytest

from repro.common.errors import DeliveryError
from repro.common.units import KiB, MiB
from repro.faults import FaultSchedule, FaultWindow
from repro.reliability.gbn import GbnReceiver, GbnSender
from repro.reliability.messages import EcAck
from repro.reliability.sr import SrConfig, SrReceiver, SrSender

from tests.conftest import make_sdr_pair
from tests.reliability.conftest import random_payload


def make_gbn(*, drop=0.0, seed=0, window=64, cfg=None, **pair_kw):
    pair = make_sdr_pair(drop=drop, seed=seed, **pair_kw)
    cfg = cfg or SrConfig()
    sender = GbnSender(pair.qp_a, pair.ctrl_a, cfg, window_chunks=window)
    receiver = GbnReceiver(pair.qp_b, pair.ctrl_b, cfg)
    return pair, sender, receiver


class TestGiveUp:
    def test_a_spent_budget_fails_with_the_acked_prefix(self):
        """A data path that dies mid-write spends GBN's retransmit budget:
        the write fails naming the budget, and its bitmap is the
        cumulatively ACKed prefix, all that GBN knows arrived."""
        rtt = make_sdr_pair().channel.rtt
        pair, sender, receiver = make_gbn(
            cfg=SrConfig(max_message_retransmits=4), window=8,
            faults=FaultSchedule(
                (FaultWindow(kind="blackout", start=2 * rtt, selector="data"),)
            ),
        )
        size = 1 * MiB
        receiver.post_receive(pair.ctx_b.mr_reg(size), size)
        ticket = sender.write(size)
        with pytest.raises(DeliveryError, match="retransmit budget") as excinfo:
            pair.sim.run(ticket.done)
        err = excinfo.value
        bits = np.unpackbits(np.frombuffer(err.bitmap, dtype=np.uint8))
        delivered = bits[: err.total_chunks].astype(bool)
        assert 0 < err.delivered_chunks < err.total_chunks
        assert delivered.tolist() == [
            i < err.delivered_chunks for i in range(err.total_chunks)
        ]


class TestLossless:
    def test_write_completes(self):
        pair, sender, receiver = make_gbn()
        size = 256 * KiB
        payload = random_payload(size)
        buf = bytearray(size)
        mr = pair.ctx_b.mr_reg(size, data=buf)
        receiver.post_receive(mr, size)
        ticket = sender.write(size, payload)
        pair.sim.run(ticket.done)
        assert bytes(buf) == payload
        assert ticket.retransmitted_chunks == 0

    def test_a_control_message_other_than_an_ack_is_ignored(self):
        """Another scheme's message for the same seq (here an EC ACK) on a
        shared control path neither completes nor disturbs the write."""
        pair, sender, receiver = make_gbn(window=4)
        size = 256 * KiB
        payload = random_payload(size)
        buf = bytearray(size)
        receiver.post_receive(pair.ctx_b.mr_reg(size, data=buf), size)
        ticket = sender.write(size, payload)
        pair.ctrl_b.send(EcAck(msg_seq=ticket.seq))
        pair.sim.run(ticket.done)
        assert bytes(buf) == payload
        assert ticket.retransmitted_chunks == 0
        assert ticket.completion_time > pair.channel.rtt

    def test_window_paces_injection(self):
        pair, sender, receiver = make_gbn(window=4)
        size = 256 * KiB  # 32 chunks of 8 KiB, window 4
        mr = pair.ctx_b.mr_reg(size)
        receiver.post_receive(mr, size)
        ticket = sender.write(size)
        pair.sim.run(ticket.done)
        assert ticket.finish_time is not None
        # With a 4-chunk window over a 2.5+ RTT pipe, completion takes many
        # window round trips: much slower than one injection + RTT.
        assert ticket.completion_time > 3 * pair.channel.rtt


class TestLossy:
    @pytest.mark.parametrize("drop,seed", [(0.02, 3), (0.08, 4)])
    def test_reliable_delivery(self, drop, seed):
        pair, sender, receiver = make_gbn(drop=drop, seed=seed)
        size = 512 * KiB
        payload = random_payload(size, seed)
        buf = bytearray(size)
        mr = pair.ctx_b.mr_reg(size, data=buf)
        receiver.post_receive(mr, size)
        ticket = sender.write(size, payload)
        pair.sim.run(ticket.done)
        assert bytes(buf) == payload
        assert not ticket.failed

    def test_gbn_retransmits_more_than_sr(self):
        """GBN rewinds whole windows; SR resends only the lost chunks --
        the Section 4 justification for choosing SR."""
        size = 1 * MiB
        drop = 0.05
        gbn_retx = sr_retx = 0
        for seed in (21, 22, 23):
            pair, sender, receiver = make_gbn(drop=drop, seed=seed)
            mr = pair.ctx_b.mr_reg(size)
            receiver.post_receive(mr, size)
            t = sender.write(size)
            pair.sim.run(t.done)
            gbn_retx += t.retransmitted_chunks

            pair2 = make_sdr_pair(drop=drop, seed=seed)
            s2 = SrSender(pair2.qp_a, pair2.ctrl_a, SrConfig())
            r2 = SrReceiver(pair2.qp_b, pair2.ctrl_b, SrConfig())
            mr2 = pair2.ctx_b.mr_reg(size)
            r2.post_receive(mr2, size)
            t2 = s2.write(size)
            pair2.sim.run(t2.done)
            sr_retx += t2.retransmitted_chunks
        assert gbn_retx > sr_retx
