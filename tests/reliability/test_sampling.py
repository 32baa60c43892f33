"""Availability-sampling protocol: delivery, repair economy, determinism."""

from __future__ import annotations

import io

import pytest

from repro.common.errors import ConfigError, DeliveryError
from repro.reliability.sampling import SamplingConfig
from repro.reliability.sr import SrConfig, SrReceiver, SrSender
from repro.telemetry import ChromeTraceSink, JsonlSink, Telemetry
from repro.telemetry.demo import run_demo
from repro.verbs.mr import MemoryRegion

from tests.conftest import make_sdr_pair
from tests.reliability.conftest import make_sampling, random_payload

MIB = 1 << 20


def deliver(pair, sender, receiver, length, seed=1, until=120.0):
    payload = random_payload(length, seed=seed)
    mr = MemoryRegion(length, data=bytearray(length))
    rt = receiver.post_receive(mr, length)
    wt = sender.write(length, payload)
    pair.sim.run(until=until)
    return wt, rt, mr, payload


class TestConfig:
    def test_defaults_valid(self):
        SamplingConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"sample_interval_rtts": 0.0},
            {"repair_holdoff_rtts": -1.0},
            {"idle_timeout_rtts": 0.0},
            {"max_idle_timeouts": 0},
            {"max_message_retransmits": 0},
            {"serve_deadline_rtts": 0.0},
            {"max_resumptions": -1},
        ],
    )
    def test_rejects_bad_knobs(self, kw):
        with pytest.raises(ConfigError):
            SamplingConfig(**kw)


class TestDelivery:
    def test_lossless(self):
        pair, s, r = make_sampling()
        wt, rt, mr, payload = deliver(pair, s, r, 512 * 1024)
        assert wt.done.triggered and not wt.failed
        assert rt.done.triggered
        assert bytes(mr.data) == payload
        assert wt.retransmitted_chunks == 0
        # No gaps -> no repair requests; the receiver only sent Done(s).
        assert r.repair_requests_sent == 0

    def test_a_repair_request_after_completion_is_ignored(self):
        """A repair request that crossed the ``Done`` finds no write to
        repair (nor one to revive) and sends nothing."""
        from repro.reliability.messages import RepairReq

        pair, s, r = make_sampling()
        wt, rt, mr, payload = deliver(pair, s, r, 512 * 1024)
        pair.ctrl_b.send(RepairReq(wt.seq, 0, 0, b"\xff"))
        pair.sim.run()
        assert not wt.failed and wt.retransmitted_chunks == 0
        assert s._m_repair_reqs.value == 0

    @pytest.mark.parametrize("drop", [0.01, 0.05, 0.2])
    def test_lossy(self, drop):
        pair, s, r = make_sampling(drop=drop, seed=3)
        wt, rt, mr, payload = deliver(pair, s, r, MIB)
        assert wt.done.triggered and not wt.failed
        assert bytes(mr.data) == payload
        assert wt.retransmitted_chunks > 0
        assert r.repair_requests_sent > 0

    def test_sends_far_fewer_control_bytes_than_sr(self):
        # The protocol's reason to exist: at moderate loss the receiver
        # stays mostly silent where SR acknowledges every RTT/4.
        length = 2 * MIB
        pair, s, r = make_sampling(drop=0.02, seed=4)
        wt, _, mr, payload = deliver(pair, s, r, length)
        assert not wt.failed and bytes(mr.data) == payload
        sampling_ctrl = pair.ctrl_b.bytes_sent

        sr_pair = make_sdr_pair(drop=0.02, seed=4)
        cfg = SrConfig(nack_enabled=True)
        srs = SrSender(sr_pair.qp_a, sr_pair.ctrl_a, cfg)
        srr = SrReceiver(sr_pair.qp_b, sr_pair.ctrl_b, cfg)
        wt2, _, mr2, payload2 = deliver(sr_pair, srs, srr, length)
        assert not wt2.failed and bytes(mr2.data) == payload2
        assert sampling_ctrl < sr_pair.ctrl_b.bytes_sent

    def test_multiple_messages_interleaved(self):
        pair, s, r = make_sampling(drop=0.03, seed=5)
        length = 256 * 1024
        payloads = [random_payload(length, seed=i) for i in range(3)]
        mrs = [MemoryRegion(length, data=bytearray(length)) for _ in range(3)]
        rts = [r.post_receive(m, length) for m in mrs]
        wts = [s.write(length, p) for p in payloads]
        pair.sim.run(until=120.0)
        for wt, rt, mr, payload in zip(wts, rts, mrs, payloads):
            assert wt.done.triggered and not wt.failed
            assert rt.done.triggered
            assert bytes(mr.data) == payload

    def test_metrics_scope(self):
        pair, s, r = make_sampling(drop=0.05, seed=6)
        deliver(pair, s, r, MIB)
        snap = pair.sim.telemetry.metrics.snapshot()
        assert snap["sampling.dc-a.writes_completed"] == 1
        assert snap["sampling.dc-b.sample_rounds"] >= 1
        assert snap["sampling.dc-b.probes_drawn"] >= 1
        assert snap["sampling.dc-b.dones_sent"] >= 1
        assert (
            snap["sampling.dc-a.repaired_chunks"]
            == s._m_repaired_chunks.value
        )


class TestEscalation:
    def test_budget_exhaustion_without_resume_fails_cleanly(self):
        cfg = SamplingConfig(max_message_retransmits=2)
        pair, s, r = make_sampling(drop=0.4, seed=7, config=cfg)
        length = MIB
        payload = random_payload(length, seed=7)
        mr = MemoryRegion(length, data=bytearray(length))
        r.post_receive(mr, length)
        wt = s.write(length, payload)
        with pytest.raises(DeliveryError, match="budget"):
            def _wait():
                yield wt.done
            done = pair.sim.process(_wait())
            pair.sim.run(done)
        assert wt.failed

    def test_budget_exhaustion_resumes_in_place(self):
        # Each resumption keeps the slot and gets a fresh budget of 48
        # repairs; 30 % loss spends about 150 before the write completes.
        cfg = SamplingConfig(max_message_retransmits=48, max_resumptions=4)
        pair, s, r = make_sampling(drop=0.3, seed=8, config=cfg)
        wt, rt, mr, payload = deliver(pair, s, r, MIB, seed=8)
        assert wt.done.triggered and not wt.failed
        assert wt.resumptions >= 1
        assert rt.resumptions >= 1
        assert bytes(mr.data) == payload

    def test_idle_watchdog_escalates(self):
        # Drop every repair/Done datagram: the sender must not wedge.
        from repro.faults import FaultSchedule
        from repro.faults.schedule import FaultWindow

        cfg = SamplingConfig(
            idle_timeout_rtts=4.0, max_idle_timeouts=2, max_resumptions=1
        )
        sched = FaultSchedule(
            windows=(
                FaultWindow(kind="blackout", start=0.0, end=0.05,
                            selector="control"),
            ),
            name="ctrl-dark",
        )
        pair, s, r = make_sampling(drop=0.05, seed=9, config=cfg,
                                   faults=sched)
        wt, rt, mr, payload = deliver(pair, s, r, MIB, seed=9)
        assert wt.done.triggered and not wt.failed
        assert bytes(mr.data) == payload

    def test_serve_deadline_fails_receive(self):
        cfg = SamplingConfig(serve_deadline_rtts=8.0, max_idle_timeouts=100)
        pair, s, r = make_sampling(config=cfg)
        length = 256 * 1024
        mr = MemoryRegion(length, data=bytearray(length))
        rt = r.post_receive(mr, length)
        # Sender never writes: the receiver must give up at the deadline.
        pair.sim.run(until=10.0)
        assert rt.done.triggered
        assert not rt.done.ok
        with pytest.raises(DeliveryError, match="deadline"):
            rt.done.value


class TestDeterminism:
    """Same-seed sampling runs are byte-identical (maintained invariant)."""

    @staticmethod
    def _run(seed: int):
        buf = io.StringIO()
        chrome = ChromeTraceSink()
        telemetry = Telemetry(
            trace=True, trace_sinks=[JsonlSink(buf), chrome]
        )
        result = run_demo(
            protocol="sampling", messages=2, message_bytes=MIB, drop=0.02,
            seed=seed, telemetry=telemetry,
        )
        return result, buf.getvalue(), chrome.to_json()

    def test_same_seed_byte_identical(self):
        result_a, jsonl_a, chrome_a = self._run(seed=11)
        result_b, jsonl_b, chrome_b = self._run(seed=11)
        assert jsonl_a
        assert jsonl_a == jsonl_b
        assert chrome_a == chrome_b
        assert (
            result_a.telemetry.metrics.snapshot()
            == result_b.telemetry.metrics.snapshot()
        )
        assert result_a.elapsed == result_b.elapsed

    def test_different_seed_diverges(self):
        _, jsonl_a, _ = self._run(seed=11)
        _, jsonl_b, _ = self._run(seed=12)
        assert jsonl_a != jsonl_b

    def test_probe_streams_are_per_slot(self):
        # Two messages on one receiver draw from distinct substreams, so
        # slot reuse cannot replay another message's probe sequence.
        pair, s, r = make_sampling(drop=0.05, seed=13)
        length = 256 * 1024
        for i in range(2):
            wt, rt, mr, payload = deliver(pair, s, r, length, seed=i)
            assert not wt.failed
        assert len(r._rngs._streams) >= 2


class TestTraceEvents:
    def test_sampling_trace_vocabulary(self):
        buf = io.StringIO()
        telemetry = Telemetry(trace=True, trace_sinks=[JsonlSink(buf)])
        run_demo(
            protocol="sampling", messages=2, message_bytes=MIB, drop=0.05,
            seed=14, telemetry=telemetry,
        )
        import json

        names = {json.loads(line)["name"]
                 for line in buf.getvalue().splitlines() if line}
        assert "msg_post" in names
        assert "sample_probe" in names
        assert "repair_req" in names
        assert "repair_retx" in names
        assert "sampling_write" in names
