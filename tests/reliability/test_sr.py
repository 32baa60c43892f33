"""Selective Repeat protocol end-to-end."""

import pytest

from repro.common.units import KiB, MiB
from repro.reliability.sr import SrConfig

from tests.conftest import all_of
from tests.reliability.conftest import make_sr, random_payload


class TestLossless:
    def test_write_completes_in_about_injection_plus_rtt(self):
        pair, sender, receiver = make_sr()
        size = 256 * KiB
        mr = pair.ctx_b.mr_reg(size)
        receiver.post_receive(mr, size)
        ticket = sender.write(size)
        pair.sim.run(ticket.done)
        # Lossless: no retransmissions, completion ~ injection + CTS + ACK.
        assert ticket.retransmitted_chunks == 0
        ideal = size / pair.channel.bytes_per_second + pair.channel.rtt
        assert ticket.completion_time >= ideal * 0.9
        assert ticket.completion_time <= ideal * 3

    def test_data_integrity(self):
        pair, sender, receiver = make_sr()
        size = 128 * KiB
        payload = random_payload(size)
        buf = bytearray(size)
        mr = pair.ctx_b.mr_reg(size, data=buf)
        rt = receiver.post_receive(mr, size)
        wt = sender.write(size, payload)
        pair.sim.run(wt.done)
        assert bytes(buf) == payload
        assert rt.finish_time is not None

    def test_sequential_writes(self):
        pair, sender, receiver = make_sr()
        size = 64 * KiB
        mr = pair.ctx_b.mr_reg(size)
        tickets = []
        for _ in range(3):
            receiver.post_receive(mr, size)
            tickets.append(sender.write(size))
        pair.sim.run(all_of(pair.sim, [t.done for t in tickets]))
        assert all(t.finish_time is not None for t in tickets)
        assert [t.seq for t in tickets] == [0, 1, 2]


class TestLossy:
    @pytest.mark.parametrize("drop,seed", [(0.01, 3), (0.05, 4), (0.15, 5)])
    def test_reliable_delivery(self, drop, seed):
        pair, sender, receiver = make_sr(drop=drop, seed=seed)
        size = 512 * KiB
        payload = random_payload(size, seed)
        buf = bytearray(size)
        mr = pair.ctx_b.mr_reg(size, data=buf)
        receiver.post_receive(mr, size)
        ticket = sender.write(size, payload)
        pair.sim.run(ticket.done)
        assert bytes(buf) == payload
        assert not ticket.failed

    def test_retransmissions_tracked(self):
        pair, sender, receiver = make_sr(drop=0.05, seed=6)
        size = 1 * MiB
        mr = pair.ctx_b.mr_reg(size)
        receiver.post_receive(mr, size)
        ticket = sender.write(size)
        pair.sim.run(ticket.done)
        dropped = pair.fabric.links[("dc-a", "dc-b")].forward.stats.packets_dropped
        assert dropped > 0
        assert ticket.retransmitted_chunks > 0

    def test_rto_drives_recovery_time(self):
        """A drop costs at least one RTO when NACK is off (Figure 10c)."""
        cfg = SrConfig(nack_enabled=False, rto_rtts=3.0)
        pair, sender, receiver = make_sr(drop=0.03, seed=9, config=cfg)
        size = 256 * KiB
        mr = pair.ctx_b.mr_reg(size)
        receiver.post_receive(mr, size)
        ticket = sender.write(size)
        pair.sim.run(ticket.done)
        if ticket.retransmitted_chunks:
            assert ticket.completion_time > sender.rto


class TestNack:
    def test_nack_speeds_up_recovery(self):
        """With NACK, lossy writes complete faster than RTO-only on average
        (drop patterns differ per run, so compare means over seeds)."""
        times = {False: 0.0, True: 0.0}
        for seed in (11, 12, 13, 14):
            for nack in (False, True):
                cfg = SrConfig(nack_enabled=nack, rto_rtts=3.0)
                pair, sender, receiver = make_sr(
                    drop=0.04, seed=seed, config=cfg
                )
                size = 1 * MiB
                mr = pair.ctx_b.mr_reg(size)
                receiver.post_receive(mr, size)
                ticket = sender.write(size)
                pair.sim.run(ticket.done)
                assert ticket.retransmitted_chunks > 0
                times[nack] += ticket.completion_time
        assert times[True] < times[False]

    def test_nacks_counted(self):
        cfg = SrConfig(nack_enabled=True)
        pair, sender, receiver = make_sr(drop=0.08, seed=13, config=cfg)
        size = 512 * KiB
        mr = pair.ctx_b.mr_reg(size)
        receiver.post_receive(mr, size)
        ticket = sender.write(size)
        pair.sim.run(ticket.done)
        assert receiver.nacks_sent > 0
        assert ticket.nacks_received > 0


class TestControlPathLoss:
    def test_survives_lossy_control_path(self):
        """ACKs and CTS datagrams share the lossy reverse channel."""
        pair, sender, receiver = make_sr(drop=0.1, seed=17)
        size = 256 * KiB
        mr = pair.ctx_b.mr_reg(size)
        receiver.post_receive(mr, size)
        ticket = sender.write(size)
        pair.sim.run(ticket.done)
        assert not ticket.failed
