"""Selective Repeat protocol end-to-end."""

import pytest

from repro.common.errors import DeliveryError
from repro.common.units import KiB, MiB
from repro.reliability import base
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
        assert receiver._m_nacks_sent.value > 0
        assert ticket.nacks_received > 0


class TestFirstPass:
    """The first transmission paces itself chunk by chunk on the wire."""

    def test_every_chunk_starts_its_rto_clock_once_in_order(self, monkeypatch):
        """At 1 Gbit/s NACK retransmissions interleave with the first pass,
        and their injections can already meet a chunk's wire target as it
        is posted: that chunk's clock starts at once, never skipped."""
        met_at_post = []
        wait = base.wait_injected

        def spy(qp, hdl, target, then):
            waiting = wait(qp, hdl, target, then)
            met_at_post.append(not waiting)
            return waiting

        monkeypatch.setattr(base, "wait_injected", spy)
        cfg = SrConfig(nack_enabled=True)
        pair, sender, receiver = make_sr(drop=0.02, seed=3, config=cfg, bandwidth_bps=1e9)
        armed = []
        arm = sender._arm

        def record(state, index, *, kick=True):
            if kick:  # the first pass; unpaced retransmissions arm inline
                armed.append(index)
            arm(state, index, kick=kick)

        sender._arm = record
        size = 512 * KiB
        receiver.post_receive(pair.ctx_b.mr_reg(size), size)
        ticket = sender.write(size)
        pair.sim.run(ticket.done)
        assert any(met_at_post) and ticket.retransmitted_chunks > 0
        assert armed == list(range(size // (8 * KiB)))

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 24(a): the first pass's wire target "
        "min((index + 1) * ppc, posted) counts retransmitted packets as the "
        "chunk's own, so a chunk can be armed before its last packet leaves",
    )
    def test_no_chunk_is_armed_before_its_own_last_packet_leaves(self):
        """Same setup as above: each first-pass chunk's RTO clock starts only
        once the NIC injected every packet posted up to and with it."""
        cfg = SrConfig(nack_enabled=True)
        pair, sender, receiver = make_sr(drop=0.02, seed=3, config=cfg, bandwidth_bps=1e9)
        own_last, early = {}, []
        send, arm = sender._send_chunk, sender._arm

        def record_send(state, index, **kw):
            send(state, index, **kw)
            own_last.setdefault(index, state.hdl.packets_posted)

        def record_arm(state, index, *, kick=True):
            if kick and state.hdl.packets_injected < own_last[index]:
                early.append(index)
            arm(state, index, kick=kick)

        sender._send_chunk, sender._arm = record_send, record_arm
        size = 512 * KiB
        receiver.post_receive(pair.ctx_b.mr_reg(size), size)
        ticket = sender.write(size)
        pair.sim.run(ticket.done)
        assert not ticket.failed
        assert early == []

    def test_a_write_that_fails_mid_pass_posts_no_more_chunks(self):
        cfg = SrConfig(nack_enabled=True, max_message_retransmits=1)
        pair, sender, receiver = make_sr(drop=0.05, seed=2, config=cfg, bandwidth_bps=1e9)
        size = 4 * MiB
        receiver.post_receive(pair.ctx_b.mr_reg(size), size)
        ticket = sender.write(size)
        hdl = sender._states[ticket.seq].hdl
        with pytest.raises(DeliveryError, match="retransmit budget"):
            pair.sim.run(ticket.done)
        posted = hdl.packets_posted
        pair.sim.run(until=pair.sim.now + 0.05)  # past the whole 33 ms pass
        assert hdl.packets_posted == posted < size // (4 * KiB)


class TestServeDeadline:
    def test_a_receive_past_its_serve_deadline_fails_with_what_arrived(self):
        """No write reaches a receive whose serve deadline is finite: it
        fails at the deadline, naming it, with an empty chunk bitmap."""
        pair, sender, receiver = make_sr(config=SrConfig(serve_deadline_rtts=4.0))
        size = 64 * KiB
        ticket = receiver.post_receive(pair.ctx_b.mr_reg(size), size)
        with pytest.raises(
            DeliveryError, match="receive seq=0 incomplete at serve deadline"
        ) as excinfo:
            pair.sim.run(ticket.done)
        err = excinfo.value
        assert (err.delivered_chunks, err.total_chunks) == (0, size // (8 * KiB))
        assert pair.sim.now >= 4.0 * pair.channel.rtt


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
