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

from tests.conftest import make_sdr_pair
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
