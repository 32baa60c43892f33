"""End-to-end: one simulated WAN run populates every layer of the registry."""

import json

import pytest

from repro.common.config import ChannelConfig, SdrConfig
from repro.common.errors import ConfigError, DeliveryError
from repro.fabric.scenarios import ScaleConfig, scale_scenario
from repro.reliability.ec import EcConfig
from repro.reliability.sr import SrConfig
from repro.stack import build_pair, closed_loop, endpoints
from repro.telemetry import ChromeTraceSink, RingBufferSink, Telemetry
from repro.telemetry.demo import run_demo
from repro.telemetry.report import build_tables, render_report

from tests.conftest import drains_within

KIB = 1 << 10
MIB = 1 << 20


@pytest.fixture(scope="module")
def sr_result():
    """One lossy SR-over-WAN run, shared across this module's tests."""
    return run_demo(
        protocol="sr", messages=2, message_bytes=MIB, drop=0.01, seed=1,
        telemetry=Telemetry(
            trace=True,
            trace_sinks=[RingBufferSink(), ChromeTraceSink()],
        ),
    )


class TestDemoRun:
    def test_transfer_completes(self, sr_result):
        assert sr_result.elapsed > 0
        assert sr_result.goodput_gbps > 0
        assert all(t.finish_time is not None for t in sr_result.write_tickets)
        assert all(t.finish_time is not None for t in sr_result.recv_tickets)

    def test_every_layer_reports_into_one_registry(self, sr_result):
        reg = sr_result.telemetry.metrics
        # net: the lossy forward plane dropped and delivered packets.
        assert reg.value("net.dc-a<->dc-b.fwd.packets_dropped") > 0
        assert reg.value("net.dc-a<->dc-b.fwd.bytes_delivered") >= 2 * MIB
        # sdr: both endpoints of the same run report into the same registry.
        assert reg.value("sdr.dc-a.messages_sent") == 2
        assert reg.value("sdr.dc-b.messages_received") == 2
        assert reg.value("sdr.dc-b.chunks_completed") == 32  # 2 x 1MiB/64KiB
        assert reg.value("sdr.dc-b.cts_sent") > 0
        # reliability: drops forced RTO retransmissions and ACK traffic.
        assert reg.value("sr.dc-a.writes_completed") == 2
        assert reg.value("sr.dc-a.retransmitted_chunks") > 0
        assert reg.value("sr.dc-b.acks_sent") > 0
        hist = reg.get("sr.dc-a.write_seconds")
        assert hist.count == 2 and hist.percentile(99) > 0
        # dpa: receive-side workers processed CQEs and closed chunks.
        cqes = sum(
            reg.value(n) for n in reg.names("dpa")
            if n.endswith(".cqes_processed")
        )
        assert cqes > 0

    def test_trace_spans_cover_layers(self, sr_result):
        ring = sr_result.telemetry.trace.sinks[0]
        cats = {e.cat for e in ring.events}
        assert {"net", "sdr", "sr", "dpa"} <= cats
        spans = [e for e in ring.events if e.ph == "X"]
        assert spans and all(e.dur >= 0 for e in spans)
        drops = [e for e in ring.events if e.name == "loss_drop"]
        assert len(drops) == sr_result.telemetry.metrics.value(
            "net.dc-a<->dc-b.fwd.packets_dropped"
        )

    def test_chrome_trace_validates(self, sr_result):
        chrome = sr_result.telemetry.trace.sinks[1]
        doc = json.loads(chrome.to_json())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        for e in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(e)
            if e["ph"] == "X":
                assert e["dur"] >= 0
            if e["ph"] != "M":
                assert e["ts"] >= 0

    def test_report_tables(self, sr_result):
        tables = build_tables(sr_result.telemetry.metrics)
        titles = [t.title for t in tables]
        assert any("Channels" in t for t in titles)
        assert any("SDR" in t for t in titles)
        assert any("Reliability" in t for t in titles)
        assert any("DPA" in t for t in titles)
        text = render_report(sr_result.telemetry.metrics)
        assert "dc-a<->dc-b.fwd" in text
        assert "sr" in text

    def test_empty_registry_report(self):
        from repro.telemetry import MetricsRegistry

        assert "empty" in render_report(MetricsRegistry())


class TestDemoValidation:
    def test_bad_protocol(self):
        with pytest.raises(ConfigError):
            run_demo(protocol="tcp")

    def test_bad_message_count(self):
        with pytest.raises(ConfigError):
            run_demo(messages=0)


class TestEcDemo:
    def test_ec_run_populates_ec_metrics(self):
        result = run_demo(
            protocol="ec", messages=1, message_bytes=2 * MIB, drop=0.05,
            seed=3,
        )
        reg = result.telemetry.metrics
        assert reg.value("ec.dc-a.writes_completed") == 1
        assert reg.value("ec.dc-b.acks_sent") > 0
        assert reg.value("ec.dc-b.submessages_decoded") > 0

    def test_parity_receive_larger_than_the_message(self):
        """A 48 KiB message under MDS(8, 4) over 16 KiB chunks posts 64 KiB
        parity receives: the SDR message limit must cover them."""
        result = run_demo(
            protocol="ec", messages=2, message_bytes=48 * 1024, chunk_bytes=16 * 1024,
            ec_config=EcConfig(codec="mds", k=8, m=4),
        )
        assert result.failed_writes == 0
        assert result.telemetry.metrics.value("ec.dc-a.writes_completed") == 2


class TestFailedWritesDrain:
    def test_drain_ends_after_failed_sr_writes(self):
        """``run_demo``'s set-up: three 256 KiB SR writes at 30 % loss, each
        chunk retransmitted at most once, so writes fail; the heap must
        still drain, and a failed write's receive fails with it."""
        self.drain("sr", config=SrConfig(max_chunk_retransmits=1))

    @pytest.mark.parametrize("scheme", ["ec", "adaptive"])
    def test_drain_ends_after_failed_ec_writes(self, scheme):
        """The same under EC(4, 2), bare and provisioned by ``adaptive``:
        a write fails at its global timeout, and its receive, which would
        NACK the missing chunks round after round, is abandoned."""
        config = EcConfig(k=4, m=2, global_timeout_rtts=5.0)
        if scheme == "ec":
            self.drain(scheme, config=config)
        else:
            self.drain(scheme, ec_config=config)

    @staticmethod
    def drain(scheme, **configs):
        stack = build_pair(
            ChannelConfig(
                bandwidth_bps=100e9, distance_km=1000.0, mtu_bytes=4 * KIB,
                drop_probability=0.3,
            ),
            SdrConfig(
                chunk_bytes=64 * KIB, max_message_bytes=256 * KIB,
                mtu_bytes=4 * KIB, channels=4, generations=4,
                inflight_messages=64,
            ),
        )
        sender, receiver = endpoints(scheme, stack, **configs)
        mr = stack.ctx_b.mr_reg(256 * KIB)
        tickets, receives = [], []
        closed_loop(
            stack.sim, sender, receiver, mr, 256 * KIB,
            lambda posted: posted < 3, tickets, receives,
        )
        drains_within(stack.sim, dispatches=500_000, sim_seconds=10.0)
        assert len(tickets) == 3 and any(t.failed for t in tickets)
        for write, receive in zip(tickets, receives):
            if write.failed:
                with pytest.raises(DeliveryError):
                    receive.done.value


class TestDisabledMetrics:
    def test_run_completes_with_registry_off(self):
        result = run_demo(
            protocol="sr", messages=1, message_bytes=MIB, drop=0.01, seed=1,
            telemetry=Telemetry(metrics=False),
        )
        assert result.elapsed > 0
        assert len(result.telemetry.metrics) == 0
        assert result.sim is not None

    def test_packet_mode_fabric_with_registry_off(self):
        """The packet-mode fabric path stores into its counters and gauges
        (``c.value += n``); with the registry off they are unregistered
        instruments, so the run completes exactly as it does with it on."""
        config = ScaleConfig(
            tenants=20, tors=2, hosts_per_tor=2, offered_load_bps=20e9,
            duration=0.001, seed=0, rate_skew=0.0,
        )
        off = scale_scenario(config, telemetry=Telemetry(metrics=False))
        on = scale_scenario(config)
        assert off.messages > 10
        assert off.completed == off.messages and off.failed == 0
        assert (off.messages, off.drained_at) == (on.messages, on.drained_at)
        assert off.reports == on.reports
