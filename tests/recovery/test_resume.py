"""Resumption in place: the recovery plane's acceptance tests.

The headline criterion: under a plane blackout that outlives the SR retry
budget, the same-seed run that raises ``DeliveryError`` without recovery
completes with failover + resume armed -- the write keeps its slot and
re-sends only the chunks the receiver's answer marks missing -- and
same-seed recovery runs are byte-identical in trace output.
"""

import io

import pytest

from repro.common.errors import ConfigError, DeliveryError
from repro.common.units import KiB, MiB
from repro.faults import FaultSchedule, FaultWindow
from repro.recovery import BreakerConfig, PlaneRecovery
from repro.reliability.adaptive import AdaptiveReceiver, AdaptiveSender
from repro.reliability.ec import EcConfig, EcReceiver, EcSender
from repro.reliability.sr import SrConfig, SrReceiver, SrSender
from repro.telemetry import JsonlSink, RingBufferSink, Telemetry

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
        so the resumption fails unanswered, carrying the bitmap the failed
        attempt left (2 MiB in 16 KiB chunks, 10 Gb/s, 100 km)."""
        def build(faults=None, telemetry=None):
            return make_sdr_pair(
                seed=1, bandwidth_bps=10e9, chunk=16 * KiB, faults=faults,
                telemetry=telemetry,
            )

        rtt = build().channel.rtt
        ring = RingBufferSink()
        pair = build(
            FaultSchedule((FaultWindow(kind="blackout", start=3 * rtt),)),
            Telemetry(trace=True, trace_sinks=[ring]),
        )
        cfg = SrConfig(max_message_retransmits=4, max_resumptions=1)
        sender = SrSender(pair.qp_a, pair.ctrl_a, cfg)
        receiver = SrReceiver(pair.qp_b, pair.ctrl_b, cfg)
        size = 2 * MiB
        receiver.post_receive(pair.ctx_b.mr_reg(size), size)
        ticket = sender.write(size, random_payload(size, 1))
        with pytest.raises(
            DeliveryError, match="attempt 1 failed: resume request never answered"
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
        failed = [e.args for e in ring.events if e.name == "resume_failed"]
        assert failed == [{"msg": 0, "attempt": 1}]

    def _slot_race(self):
        """Write 0 under a data blackout that outlives its retry budget (and
        ends at 3.6 RTT); the simulation stops as the resume begins."""
        size = 256 * KiB
        rtt = make_sdr_pair(seed=0).channel.rtt
        ring = RingBufferSink()
        pair = make_sdr_pair(
            seed=0, faults=data_blackout(rtt, end_rtts=3.6),
            telemetry=Telemetry(trace=True, trace_sinks=[ring]),
        )
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

    @pytest.mark.parametrize("posted", ["before", "after"])
    def test_a_resumed_write_keeps_its_slot(self, posted):
        """Order-based matching needs no help: the resumed write keeps seq
        0 and its slot, so a second write posted during the resume takes
        seq 1, whether its receive was posted before the resume or once
        write 0 completed.  Each receive holds its own write's bytes."""
        pair, ring, sender, ticket, recv, post_receive, bufs, payloads = (
            self._slot_race()
        )
        recv2 = post_receive(1) if posted == "before" else None
        second = sender.write(len(payloads[1]), payloads[1])
        assert (ticket.seq, second.seq) == (0, 1)
        pair.sim.run(ticket.done)
        if recv2 is None:
            recv2 = post_receive(1)
        drains_within(
            pair.sim, dispatches=50_000, sim_seconds=1000 * pair.channel.rtt
        )
        assert not ticket.failed and not second.failed
        assert recv.done.triggered and bytes(bufs[0]) == payloads[0]
        assert recv2.done.triggered and bytes(bufs[1]) == payloads[1]
        reg = pair.sim.telemetry.metrics
        assert reg.value("recovery.dc-a.resumes_completed") == 1
        assert reg.value("recovery.dc-a.resume_failures") == 0
        posts = [e.args["msg"] for e in ring.events if e.name == "msg_post"]
        assert posts == [0, 1]
        revived = [e.args for e in ring.events if e.name == "resume_post"]
        assert revived == [{"msg": 0, "attempt": 1}]

    def test_a_write_the_qp_would_refuse_raises_before_taking_a_slot(self):
        """A write whose stream the QP would refuse raises at ``write()``
        and takes no seq: the next write still gets seq 1 while write 0
        resumes, and both complete intact."""
        pair, ring, sender, ticket, recv, post_receive, bufs, payloads = (
            self._slot_race()
        )
        too_long = pair.qp_a.config.max_message_bytes + 1
        with pytest.raises(ConfigError, match="exceeds max message size"):
            sender.write(too_long)
        with pytest.raises(ConfigError, match="send length must be > 0"):
            sender.write(0)
        second = sender.write(len(payloads[1]), payloads[1])
        assert second.seq == 1
        recv2 = post_receive(1)
        drains_within(
            pair.sim, dispatches=50_000, sim_seconds=1000 * pair.channel.rtt
        )
        assert not ticket.failed and not second.failed
        assert bytes(bufs[0]) == payloads[0] and bytes(bufs[1]) == payloads[1]
        assert recv2.done.ok


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


def test_an_ec_fallback_nack_blames_the_flows_plane():
    """An EC sender reports each fallback NACK to an attached
    :class:`PlaneRecovery` too, blaming the plane its data flow hashes to."""
    pair = make_sdr_pair(seed=3, planes=2, spread="flow", drop=0.2)
    cfg = EcConfig(k=8, m=2)
    sender = EcSender(pair.qp_a, pair.ctrl_a, cfg)
    receiver = EcReceiver(pair.qp_b, pair.ctrl_b, cfg)
    recovery = PlaneRecovery(pair.sim, pair.bonded[0], rtt=pair.channel.rtt)
    sender.attach_recovery(recovery)
    penalties = []
    penalize = recovery._penalize

    def spy(keys, weight):
        penalties.append(tuple(keys))
        penalize(keys, weight)

    recovery._penalize = spy
    size = 512 * KiB
    buf = bytearray(size)
    receiver.post_receive(pair.ctx_b.mr_reg(size, data=buf), size)
    payload = random_payload(size, 3)
    ticket = sender.write(size, payload)
    drains_within(pair.sim, dispatches=100_000, sim_seconds=300 * pair.channel.rtt)
    assert not ticket.failed and bytes(buf) == payload
    reg = pair.sim.telemetry.metrics
    assert ticket.nacks_received > 0
    assert reg.value("recovery.dc-a->dc-b.nack_signals") == ticket.nacks_received
    plane = pair.qp_a.data_qps[0][0].qpn % 2
    assert penalties and set(penalties) == {(plane,)}


def run_failover(*, seed=0, recover=True, trace_buf=None, resumptions=2):
    """512 KiB over a 2-plane sprayed link whose plane 0 data path dies
    for 30 RTT -- longer than the 64-retransmit SR budget survives."""
    size = 512 * KiB  # 64 chunks at the 8 KiB default
    pair = make_sdr_pair(seed=seed, planes=2, spread="packet")
    rtt = pair.channel.rtt
    ring = RingBufferSink()
    sinks = [ring] if trace_buf is None else [JsonlSink(trace_buf), ring]
    pair = make_sdr_pair(
        seed=seed, planes=2, spread="packet",
        faults=data_blackout(rtt, end_rtts=30.0, plane=0),
        telemetry=Telemetry(trace=True, trace_sinks=sinks),
    )
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
        """Each revival splits the 64 chunks into those the receiver's
        answer confirmed (skipped) and those re-sent, in the write's own
        slot: one ``msg_post`` for the whole run."""
        pair, ticket, payload, buf, recovery, ring = run_failover(recover=True)
        assert not ticket.failed
        revivals = [e for e in ring.events if e.name == "resume_post"]
        assert [e.args["msg"] for e in ring.events if e.name == "msg_post"] == [0]
        reg = pair.sim.telemetry.metrics
        skipped = reg.value("recovery.dc-a.resumed_chunks_skipped")
        resent = reg.value("recovery.dc-a.resumed_chunks_retransmitted")
        # Every chunk has a packet on the dead plane: none had arrived.
        assert revivals and (skipped, resent) == (0, 64 * len(revivals))

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

    def test_abandoning_a_resuming_writes_receive_fails_it(self):
        """256 KiB under a data blackout from 0.53 RTT that never ends: 14
        data chunks and no parity arrive, the global timeout resumes the
        write, and the resumed attempt times out too.  ``abandon`` fails
        the receive with the 14 chunks that arrived and frees its slots."""
        size = 256 * KiB
        rtt = make_sdr_pair(seed=0).channel.rtt
        pair = make_sdr_pair(
            seed=0,
            faults=data_blackout(rtt, start=0.53 * rtt, end_rtts=float("inf")),
        )
        cfg = EcConfig(global_timeout_rtts=10.0, max_resumptions=1)
        sender = EcSender(pair.qp_a, pair.ctrl_a, cfg)
        receiver = EcReceiver(pair.qp_b, pair.ctrl_b, cfg)
        recv = receiver.post_receive(pair.ctx_b.mr_reg(size), size)
        ticket = sender.write(size, random_payload(size, 0))
        with pytest.raises(DeliveryError):
            pair.sim.run(ticket.done)
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
