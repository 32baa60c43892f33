"""Bitmap-driven resumption: the recovery plane's acceptance tests.

The headline criterion: under a plane blackout that outlives the SR retry
budget, the same-seed run that raises ``DeliveryError`` without recovery
completes with failover + resume armed -- retransmitting only the chunks
the receiver's bitmap marks missing -- and same-seed recovery runs are
byte-identical in trace output.
"""

import io

import numpy as np
import pytest

from repro.common.errors import ConfigError, DeliveryError, ReproError
from repro.common.units import KiB, MiB
from repro.faults import FaultSchedule, FaultWindow
from repro.recovery import BreakerConfig, PlaneRecovery, ResumeToken
from repro.reliability.adaptive import AdaptiveReceiver, AdaptiveSender
from repro.reliability.ec import EcConfig, EcReceiver, EcSender
from repro.reliability.sr import SrConfig, SrReceiver, SrSender
from repro.telemetry import JsonlSink, RingBufferSink

from tests.conftest import drains_within, make_sdr_pair
from tests.reliability.conftest import random_payload


def data_blackout(rtt, *, start=0.0, end_rtts=12.0, plane=None):
    """A data-only blackout (control stays up so CTS/ACK/resume flow)."""
    return FaultSchedule(
        (
            FaultWindow(
                kind="blackout", start=start, end=end_rtts * rtt,
                selector="data", plane=plane,
            ),
        ),
        name="data-blackout",
    )


class TestResumeToken:
    def test_mask_round_trip(self):
        mask = np.array([True, False, True, False, False], dtype=bool)
        token = ResumeToken(
            msg_seq=3, length=40 * KiB, total_chunks=5,
            bitmap=np.packbits(mask).tobytes(),
        )
        assert token.delivered_mask().tolist() == mask.tolist()
        assert token.delivered_chunks == 2
        assert token.missing_chunks == 3

    def test_empty_bitmap_means_nothing_delivered(self):
        token = ResumeToken(msg_seq=0, length=8 * KiB, total_chunks=4)
        assert token.delivered_chunks == 0
        assert token.missing_chunks == 4

    def test_from_failure_requires_bitmap_state(self):
        class Ticket:
            seq = 7
            length = 64 * KiB
            resumptions = 0

        err = DeliveryError("x", delivered_chunks=2, total_chunks=8,
                            bitmap=b"\xc0")
        token = ResumeToken.from_failure(Ticket(), err)
        assert token.msg_seq == 7
        assert token.attempt == 1
        assert token.delivered_chunks == 2
        with pytest.raises(ConfigError):
            ResumeToken.from_failure(Ticket(), ReproError("no bitmap"))


def run_sr(
    *, seed=0, size=256 * KiB, end_rtts=12.0, max_resumptions=0,
    budget=8, until_rtts=3000.0,
):
    pair = make_sdr_pair(seed=seed)
    rtt = pair.channel.rtt
    pair2 = make_sdr_pair(seed=seed, faults=data_blackout(rtt, end_rtts=end_rtts))
    cfg = SrConfig(
        max_message_retransmits=budget, max_resumptions=max_resumptions
    )
    sender = SrSender(pair2.qp_a, pair2.ctrl_a, cfg)
    receiver = SrReceiver(pair2.qp_b, pair2.ctrl_b, cfg)
    payload = random_payload(size, seed)
    buf = bytearray(size)
    mr = pair2.ctx_b.mr_reg(size, data=buf)
    receiver.post_receive(mr, size)
    ticket = sender.write(size, payload)
    pair2.sim.run(until=until_rtts * rtt)
    return pair2, ticket, payload, buf


class TestSrResume:
    def test_without_resumption_budget_write_fails(self):
        pair, ticket, payload, buf = run_sr(max_resumptions=0)
        assert ticket.done.triggered
        assert ticket.failed
        with pytest.raises(DeliveryError):
            ticket.done.value

    def test_resume_completes_the_same_seed_run(self):
        pair, ticket, payload, buf = run_sr(max_resumptions=8)
        assert ticket.done.triggered
        assert not ticket.failed
        assert bytes(buf) == payload
        assert ticket.resumptions >= 1
        reg = pair.sim.telemetry.metrics
        assert reg.value("recovery.dc-a.resumes_started") >= 1
        assert reg.value("recovery.dc-a.resumes_completed") == 1
        assert reg.value("recovery.dc-b.resumes_granted") >= 1

    def test_resumption_budget_exhaustion_fails_cleanly(self):
        """A permanent data blackout defeats every resume attempt; the final
        failure carries the partial bitmap like any DeliveryError."""
        pair, ticket, payload, buf = run_sr(
            max_resumptions=1, end_rtts=float("inf"), until_rtts=4000.0
        )
        assert ticket.done.triggered
        assert ticket.failed
        with pytest.raises(DeliveryError) as excinfo:
            ticket.done.value
        assert excinfo.value.total_chunks == 32
        reg = pair.sim.telemetry.metrics
        # The one budgeted resume was started and granted, but the blackout
        # defeated the resumed attempt too -- no completion.
        assert reg.value("recovery.dc-a.resumes_started") == 1
        assert reg.value("recovery.dc-a.resumes_completed") == 0

    def test_resume_never_granted_fails_with_the_partial_bitmap(self):
        """A blackout of data *and* control: every resume request is lost,
        so the resumption fails before a grant, carrying the bitmap the
        failed attempt left (2 MiB in 16 KiB chunks, 10 Gb/s, 100 km)."""
        def build(faults=None):
            return make_sdr_pair(
                seed=1, bandwidth_bps=10e9, chunk=16 * KiB, faults=faults
            )

        rtt = build().channel.rtt
        pair = build(
            FaultSchedule((FaultWindow(kind="blackout", start=3 * rtt),))
        )
        cfg = SrConfig(
            max_message_retransmits=4, max_resumptions=1,
            max_resume_requests=3, resume_interval_rtts=1.0,
        )
        sender = SrSender(pair.qp_a, pair.ctrl_a, cfg)
        receiver = SrReceiver(pair.qp_b, pair.ctrl_b, cfg)
        size = 2 * MiB
        receiver.post_receive(pair.ctx_b.mr_reg(size), size)
        ticket = sender.write(size, random_payload(size, 1))
        with pytest.raises(
            DeliveryError, match="attempt 1 failed: resume request never granted"
        ) as excinfo:
            pair.sim.run(ticket.done)
        err = excinfo.value
        assert (err.delivered_chunks, err.total_chunks) == (49, 128)
        assert len(err.bitmap) == 16
        assert ticket.failed and ticket.resumptions == 1
        reg = pair.sim.telemetry.metrics
        assert reg.value("recovery.dc-a.resumes_started") == 1
        assert reg.value("recovery.dc-a.resume_failures") == 1
        assert reg.value("recovery.dc-b.resumes_granted") == 0

    def _slot_race(self):
        """Write 0 under a data blackout that outlives its retry budget (and
        ends at 3.6 RTT); the simulation stops as the resume is requested."""
        size = 256 * KiB
        rtt = make_sdr_pair(seed=0).channel.rtt
        pair = make_sdr_pair(seed=0, faults=data_blackout(rtt, end_rtts=3.6))
        ring = RingBufferSink()
        pair.sim.telemetry.trace.enabled = True
        pair.sim.telemetry.trace.add_sink(ring)
        cfg = SrConfig(max_message_retransmits=8, max_resumptions=1)
        sender = SrSender(pair.qp_a, pair.ctrl_a, cfg)
        receiver = SrReceiver(pair.qp_b, pair.ctrl_b, cfg)
        bufs = [bytearray(size), bytearray(size)]
        payloads = [random_payload(size, 0), random_payload(size, 1)]

        def post_receive(i):
            return receiver.post_receive(
                pair.ctx_b.mr_reg(size, data=bufs[i]), size
            )

        recv = post_receive(0)
        ticket = sender.write(size, payloads[0])
        while ticket.resumptions == 0:
            pair.sim.step()
        return pair, ring, sender, ticket, recv, post_receive, bufs, payloads

    def test_write_posted_while_resume_pending_waits_for_the_resumed_slot(self):
        """Order-based matching: the receiver grants the resumed write its
        next slot, so a second write posted while the grant is in flight
        is held until the resumed attempt has taken that slot.  Each
        receive then holds its own write's bytes."""
        pair, ring, sender, ticket, recv, post_receive, bufs, payloads = (
            self._slot_race()
        )
        rtt = pair.channel.rtt
        pair.sim.run(until=4.0 * rtt)
        assert ticket.seq in sender._pending_resumes  # the grant is in flight
        second = sender.write(len(payloads[1]), payloads[1])
        assert second.seq is None  # held behind the grant
        pair.sim.run(ticket.done)
        recv2 = post_receive(1)
        drains_within(pair.sim, dispatches=50_000, sim_seconds=1000 * rtt)
        assert not ticket.failed and not second.failed
        assert (ticket.seq, second.seq) == (0, 2)
        assert recv.done.triggered and bytes(bufs[0]) == payloads[0]
        assert recv2.done.triggered and bytes(bufs[1]) == payloads[1]
        reg = pair.sim.telemetry.metrics
        assert reg.value("recovery.dc-a.resumes_completed") == 1
        assert reg.value("recovery.dc-a.resume_failures") == 0
        posts = [e.args for e in ring.events if e.name == "msg_post"]
        assert [(a["msg"], a.get("resumed_from")) for a in posts] == [
            (0, None), (1, 0), (2, None),
        ]

    def test_held_writes_fill_the_slots_the_receiver_posted_first(self):
        """The receiver posts its second receive before the resume request
        arrives, so its grant names slot 2: the held second write takes
        slot 1, the resumed attempt slot 2, and both complete intact."""
        pair, ring, sender, ticket, recv, post_receive, bufs, payloads = (
            self._slot_race()
        )
        recv2 = post_receive(1)
        second = sender.write(len(payloads[1]), payloads[1])
        drains_within(
            pair.sim, dispatches=50_000, sim_seconds=1000 * pair.channel.rtt
        )
        assert not ticket.failed and not second.failed
        assert second.seq == 1
        assert recv.done.triggered and bytes(bufs[0]) == payloads[0]
        assert recv2.done.triggered and bytes(bufs[1]) == payloads[1]
        posts = [e.args for e in ring.events if e.name == "msg_post"]
        assert [(a["msg"], a.get("resumed_from")) for a in posts] == [
            (0, None), (1, None), (2, 0),
        ]

    def test_resume_behind_the_receivers_slots_fails_cleanly(self):
        """The receiver posted a second receive before granting and the
        sender has no write to fill it: the resume fails naming the
        mismatch and takes no slot, so the next write still lands in the
        second receive, and the first receive never completes."""
        pair, ring, sender, ticket, recv, post_receive, bufs, payloads = (
            self._slot_race()
        )
        recv2 = post_receive(1)
        with pytest.raises(
            DeliveryError,
            match=r"seq=0 resume attempt 1 failed: "
            r"slot mismatch \(local seq 1, peer 2\)",
        ):
            pair.sim.run(ticket.done)
        assert ticket.failed
        assert not sender._states and not sender._pending_resumes
        reg = pair.sim.telemetry.metrics
        assert reg.value("recovery.dc-a.resume_failures") == 1
        assert reg.value("recovery.dc-a.resumes_completed") == 0
        failed = [e.args for e in ring.events if e.name == "resume_failed"]
        assert failed == [{"msg": 0, "attempt": 1}]
        second = sender.write(len(payloads[1]), payloads[1])
        pair.sim.run(second.done)
        assert second.seq == 1 and not second.failed
        assert recv2.done.triggered and bytes(bufs[1]) == payloads[1]
        assert not recv.done.triggered and not any(bufs[0])

    def test_a_held_write_the_qp_would_refuse_raises_at_the_call(self):
        """While the grant is in flight, a write whose stream the QP would
        refuse raises at ``write()``, as on an idle QP, and nothing is
        held for it: the resumed write and the next one complete intact."""
        pair, ring, sender, ticket, recv, post_receive, bufs, payloads = (
            self._slot_race()
        )
        too_long = pair.qp_a.config.max_message_bytes + 1
        with pytest.raises(ConfigError, match="exceeds max message size"):
            sender.write(too_long)
        with pytest.raises(ConfigError, match="send length must be > 0"):
            sender.write(0)
        assert not pair.qp_a._held
        second = sender.write(len(payloads[1]), payloads[1])
        assert second.seq is None  # held behind the grant
        pair.sim.run(ticket.done)
        recv2 = post_receive(1)
        drains_within(
            pair.sim, dispatches=50_000, sim_seconds=1000 * pair.channel.rtt
        )
        assert not ticket.failed and not second.failed
        assert recv.done.triggered and bytes(bufs[0]) == payloads[0]
        assert recv2.done.triggered and bytes(bufs[1]) == payloads[1]

    def test_resuming_a_write_already_resuming_is_refused(self):
        """A second resume of the message whose grant is in flight raises,
        and the QP still counts one grant in flight, not two: the first
        resume completes and releases the slots."""
        pair, ring, sender, ticket, recv, post_receive, bufs, payloads = (
            self._slot_race()
        )
        assert pair.qp_a._grants_in_flight == 1
        token = ResumeToken(
            msg_seq=ticket.seq, length=ticket.length, total_chunks=32, attempt=2
        )
        with pytest.raises(ConfigError, match="seq=0 is already resuming"):
            sender.resume(token)
        assert pair.qp_a._grants_in_flight == 1
        drains_within(
            pair.sim, dispatches=50_000, sim_seconds=1000 * pair.channel.rtt
        )
        assert not ticket.failed and bytes(bufs[0]) == payloads[0]
        assert pair.qp_a._grants_in_flight == 0


class TestSrNackFeedsRecovery:
    """An SR sender with ``nack_enabled`` reports every NACK it acts on to
    an attached :class:`PlaneRecovery` (``note_nack``), which blames the
    flow's plane under flow spreading and every plane, diluted, under
    packet spray."""

    def _run(self, spread):
        pair = make_sdr_pair(seed=3, planes=2, spread=spread, drop=0.02)
        rtt = pair.channel.rtt
        # An RTO far beyond the run: every loss signal is a NACK.
        cfg = SrConfig(nack_enabled=True, rto_rtts=40.0)
        sender = SrSender(pair.qp_a, pair.ctrl_a, cfg)
        receiver = SrReceiver(pair.qp_b, pair.ctrl_b, cfg)
        recovery = PlaneRecovery(pair.sim, pair.bonded[0], rtt=rtt)
        sender.attach_recovery(recovery)
        penalties = []
        penalize = recovery._penalize

        def spy(keys, weight):
            penalties.append((tuple(keys), weight))
            penalize(keys, weight)

        recovery._penalize = spy
        size = 512 * KiB
        buf = bytearray(size)
        receiver.post_receive(pair.ctx_b.mr_reg(size, data=buf), size)
        payload = random_payload(size, 3)
        ticket = sender.write(size, payload)
        drains_within(pair.sim, dispatches=50_000, sim_seconds=100 * rtt)
        assert not ticket.failed and bytes(buf) == payload
        reg = pair.sim.telemetry.metrics
        assert reg.value("sr.dc-a.rto_fires") == 0
        nacks = reg.value("sr.dc-a.nacks_received")
        assert nacks == ticket.nacks_received > 0
        assert reg.value("recovery.dc-a->dc-b.nack_signals") == nacks
        assert len(penalties) == nacks
        return sender, penalties

    def test_flow_spread_blames_the_flows_plane(self):
        sender, penalties = self._run("flow")
        plane = sender._data_qpn() % 2
        assert all(keys == (plane,) for keys, _ in penalties)
        assert all(0 < weight <= 1.0 for _, weight in penalties)

    def test_packet_spray_dilutes_the_blame_over_every_plane(self):
        _, penalties = self._run("packet")
        assert all(keys == (0, 1) for keys, _ in penalties)
        assert all(0 < weight <= 0.5 for _, weight in penalties)


def run_failover(*, seed=0, recover=True, trace_buf=None, resumptions=2):
    """512 KiB over a 2-plane sprayed link whose plane 0 data path dies
    for 30 RTT -- longer than the 64-retransmit SR budget survives."""
    size = 512 * KiB  # 64 chunks at the 8 KiB default
    pair = make_sdr_pair(seed=seed, planes=2, spread="packet")
    rtt = pair.channel.rtt
    pair = make_sdr_pair(
        seed=seed, planes=2, spread="packet",
        faults=data_blackout(rtt, end_rtts=30.0, plane=0),
    )
    if trace_buf is not None:
        pair.sim.telemetry.trace.enabled = True
        pair.sim.telemetry.trace.add_sink(JsonlSink(trace_buf))
    ring = RingBufferSink()
    pair.sim.telemetry.trace.enabled = True
    pair.sim.telemetry.trace.add_sink(ring)
    cfg = SrConfig(
        max_message_retransmits=64,
        max_resumptions=resumptions if recover else 0,
    )
    sender = SrSender(pair.qp_a, pair.ctrl_a, cfg)
    receiver = SrReceiver(pair.qp_b, pair.ctrl_b, cfg)
    recovery = None
    if recover:
        recovery = PlaneRecovery(
            pair.sim, pair.bonded[0], rtt=rtt,
            config=BreakerConfig(open_rtts=40.0),
        )
        sender.attach_recovery(recovery)
    payload = random_payload(size, seed)
    buf = bytearray(size)
    mr = pair.ctx_b.mr_reg(size, data=buf)
    receiver.post_receive(mr, size)
    ticket = sender.write(size, payload)
    pair.sim.run(until=3000 * rtt)
    return pair, ticket, payload, buf, recovery, ring


class TestFailoverAndResume:
    def test_acceptance_same_seed_fails_without_recover(self):
        pair, ticket, payload, buf, _, _ = run_failover(recover=False)
        assert ticket.done.triggered
        assert ticket.failed
        with pytest.raises(DeliveryError):
            ticket.done.value

    def test_acceptance_completes_with_failover_and_resume(self):
        pair, ticket, payload, buf, recovery, ring = run_failover(recover=True)
        assert ticket.done.triggered
        assert not ticket.failed
        assert bytes(buf) == payload
        reg = pair.sim.telemetry.metrics
        # The breaker routed traffic around the dead plane...
        assert reg.value("recovery.dc-a->dc-b.breaker_opens") >= 1
        assert reg.value("recovery.dc-a->dc-b.failover_packets") > 0
        # ...and the resume retransmitted exactly the missing chunks.
        assert reg.value("recovery.dc-a.resumes_completed") == 1

    def test_only_missing_chunks_retransmitted(self):
        """The sender's skip/resend split must mirror the receiver's
        authoritative bitmap at grant time."""
        pair, ticket, payload, buf, recovery, ring = run_failover(recover=True)
        assert not ticket.failed
        grants = [e for e in ring.events if e.name == "resume_grant"]
        posts = [e for e in ring.events if e.name == "resume_post"]
        assert grants and posts
        total_resent = 0
        for grant, post in zip(grants, posts):
            assert grant.args["attempt"] == post.args["attempt"]
            # Receiver bitmap (grant.delivered) == sender skip count.
            assert post.args["skipped"] == grant.args["delivered"]
            assert post.args["missing"] == (
                grant.args["total"] - grant.args["delivered"]
            )
            total_resent += post.args["missing"]
        reg = pair.sim.telemetry.metrics
        assert reg.value("recovery.dc-a.resumed_chunks_retransmitted") == (
            total_resent
        )
        assert reg.value("recovery.dc-a.resumed_chunks_skipped") == sum(
            g.args["delivered"] for g in grants
        )

    def test_same_seed_recovery_runs_are_byte_identical(self):
        first = io.StringIO()
        second = io.StringIO()
        run_failover(recover=True, trace_buf=first)
        run_failover(recover=True, trace_buf=second)
        assert first.getvalue()
        assert first.getvalue() == second.getvalue()


class TestEcResume:
    def _run(self, *, max_resumptions, seed=0):
        size = 256 * KiB
        pair = make_sdr_pair(seed=seed)
        rtt = pair.channel.rtt
        pair = make_sdr_pair(seed=seed, faults=data_blackout(rtt))
        cfg = EcConfig(
            global_timeout_rtts=10.0, max_resumptions=max_resumptions
        )
        sender = EcSender(pair.qp_a, pair.ctrl_a, cfg)
        receiver = EcReceiver(pair.qp_b, pair.ctrl_b, cfg)
        payload = random_payload(size, seed)
        buf = bytearray(size)
        mr = pair.ctx_b.mr_reg(size, data=buf)
        receiver.post_receive(mr, size)
        ticket = sender.write(size, payload)
        pair.sim.run(until=3000 * rtt)
        return pair, ticket, payload, buf

    def test_global_timeout_fails_without_resume(self):
        pair, ticket, payload, buf = self._run(max_resumptions=0)
        assert ticket.done.triggered
        assert ticket.failed

    def test_resume_completes_after_global_timeout(self):
        pair, ticket, payload, buf = self._run(max_resumptions=4)
        assert ticket.done.triggered
        assert not ticket.failed
        assert bytes(buf) == payload
        reg = pair.sim.telemetry.metrics
        assert reg.value("recovery.dc-a.resumes_completed") == 1

    def _failed_write(self, *, drop=0.0, end_rtts=40.0, max_resumptions=0):
        """256 KiB under a data blackout from 0.53 RTT, mid-injection: 14
        data chunks (at ``drop=0``) and no parity arrive, too few to
        decode, and the global timeout fails the write at 12 RTT."""
        size = 256 * KiB
        rtt = make_sdr_pair(seed=0).channel.rtt
        pair = make_sdr_pair(
            seed=0, drop=drop,
            faults=data_blackout(rtt, start=0.53 * rtt, end_rtts=end_rtts),
        )
        cfg = EcConfig(global_timeout_rtts=10.0, max_resumptions=max_resumptions)
        sender = EcSender(pair.qp_a, pair.ctrl_a, cfg)
        receiver = EcReceiver(pair.qp_b, pair.ctrl_b, cfg)
        payload = random_payload(size, 0)
        buf = bytearray(size)
        recv = receiver.post_receive(pair.ctx_b.mr_reg(size, data=buf), size)
        ticket = sender.write(size, payload)
        with pytest.raises(DeliveryError):
            pair.sim.run(ticket.done)
        return pair, sender, receiver, ticket, recv, payload, buf

    def _resume_from_the_receivers_bitmap(self, drop, monitor=None):
        """Fail the write, wait out the blackout, then ``resume`` it from a
        token carrying what the receiver holds."""
        pair, sender, receiver, ticket, recv, payload, buf = (
            self._failed_write(drop=drop)
        )
        if monitor is not None:
            sender.attach_recovery(monitor)
        pair.sim.run(until=40 * pair.channel.rtt)
        have = recv.recv_handles[0].bitmap().as_array()
        token = ResumeToken(
            msg_seq=ticket.seq, length=ticket.length, total_chunks=have.size,
            bitmap=np.packbits(have).tobytes(), protocol="ec",
        )
        resumed = sender.resume(token)
        return pair, sender, resumed, recv, payload, buf, have

    def test_resume_from_a_token_sends_only_what_the_token_lacks(self):
        """The resumed attempt skips the 14 chunks the token marks delivered
        and sends the other 18; the delivered ones keep the payload."""
        pair, sender, resumed, recv, payload, buf, have = (
            self._resume_from_the_receivers_bitmap(drop=0.0)
        )
        assert have.sum() == 14
        drains_within(
            pair.sim, dispatches=50_000, sim_seconds=1000 * pair.channel.rtt
        )
        assert resumed.seq == 0 and not resumed.failed
        assert recv.done.triggered and recv.done.ok
        reg = pair.sim.telemetry.metrics
        assert reg.value("recovery.dc-a.resumed_chunks_skipped") == 14
        assert reg.value("recovery.dc-a.resumed_chunks_retransmitted") == 18
        chunk = pair.qp_a.config.chunk_bytes
        for index in np.flatnonzero(have):
            span = slice(index * chunk, (index + 1) * chunk)
            assert buf[span] == payload[span]  # delivered, never resent

    @pytest.mark.parametrize("attached", ["before", "after"])
    def test_recovery_hears_the_backstops_nacks(self, attached):
        """``resume`` builds the SR backstop; a monitor attached before it
        existed or after gets every NACK the backstop acts on (2 % loss)."""

        class Monitor:
            def __init__(self):
                self.nacks = []

            def add_listener(self, listener):
                pass

            def note_nack(self, src_qpn, missing):
                self.nacks.append(missing)

            def note_rto(self, src_qpn):
                pass

        monitor = Monitor()
        pair, sender, resumed, recv, payload, buf, have = (
            self._resume_from_the_receivers_bitmap(
                drop=0.02, monitor=monitor if attached == "before" else None
            )
        )
        if attached == "after":
            sender.attach_recovery(monitor)
        drains_within(
            pair.sim, dispatches=50_000, sim_seconds=1000 * pair.channel.rtt
        )
        assert not resumed.failed and recv.done.ok
        nacks = pair.sim.telemetry.metrics.value("sr.dc-a.nacks_received")
        assert nacks >= 1 and len(monitor.nacks) == nacks

    def test_abandoning_a_receive_the_backstop_serves_fails_it(self):
        """Under a blackout that never ends the resumed attempt fails too;
        ``abandon`` on the EC receiver reaches the SR backstop that serves
        the message since the hand-over, which frees the fresh slot and
        fails the receive with the 14 chunks that arrived."""
        pair, sender, receiver, ticket, recv, payload, buf = (
            self._failed_write(end_rtts=float("inf"), max_resumptions=1)
        )
        assert ticket.resumptions == 1 and not recv.done.triggered
        receiver.abandon(recv)
        with pytest.raises(DeliveryError) as excinfo:
            pair.sim.run(recv.done)
        err = excinfo.value
        assert (err.delivered_chunks, err.total_chunks) == (14, 32)
        assert all(rh.completed for rh in recv.recv_handles)
        drains_within(
            pair.sim, dispatches=50_000, sim_seconds=1000 * pair.channel.rtt
        )


class TestAdaptiveResume:
    def test_auto_resume_rides_the_provisioned_protocol(self):
        size = 256 * KiB
        pair = make_sdr_pair(seed=0, inflight=64)
        rtt = pair.channel.rtt
        pair = make_sdr_pair(
            seed=0, inflight=64, faults=data_blackout(rtt)
        )
        sr_cfg = SrConfig(max_message_retransmits=8, max_resumptions=8)
        ec_cfg = EcConfig(codec="mds", k=8, m=4, max_resumptions=8)
        sender = AdaptiveSender(
            pair.qp_a, pair.ctrl_a, sr_config=sr_cfg, ec_config=ec_cfg
        )
        receiver = AdaptiveReceiver(
            pair.qp_b, pair.ctrl_b, sr_config=sr_cfg, ec_config=ec_cfg
        )
        payload = random_payload(size)
        buf = bytearray(size)
        mr = pair.ctx_b.mr_reg(size, data=buf)
        receiver.post_receive(mr, size)
        ticket = sender.write(size, payload)
        pair.sim.run(until=3000 * rtt)
        assert ticket.done.triggered
        assert not ticket.failed
        assert bytes(buf) == payload
        assert pair.sim.telemetry.metrics.value(
            "recovery.dc-a.resumes_completed"
        ) >= 1

    def test_recovery_reaches_both_protocols(self):
        pair = make_sdr_pair(planes=2)
        sender = AdaptiveSender(pair.qp_a, pair.ctrl_a)
        recovery = PlaneRecovery(pair.sim, pair.bonded[0], rtt=pair.channel.rtt)
        sender.attach_recovery(recovery)
        assert sender.sr.recovery is recovery and sender.ec.recovery is recovery

    def test_resume_dispatches_by_token_protocol(self):
        pair = make_sdr_pair(inflight=64)
        sr_cfg = SrConfig(max_resumptions=2)
        ec_cfg = EcConfig(codec="mds", k=8, m=4, max_resumptions=2)
        sender = AdaptiveSender(
            pair.qp_a, pair.ctrl_a, sr_config=sr_cfg, ec_config=ec_cfg
        )
        token = ResumeToken(
            msg_seq=0, length=64 * KiB, total_chunks=8, protocol="sr"
        )
        ticket = sender.resume(token)
        assert ticket.seq == 0
        assert ticket.resumptions == 1
