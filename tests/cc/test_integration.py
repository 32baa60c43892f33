"""End-to-end repro.cc: mark -> echo -> react -> pace, and observability.

Covers the closed loop through the full demo stack (``run_demo``), the
byte-identity guarantee of the default null controller, and the
``cc_wait`` lineage category / Congestion report table.
"""

import os

import pytest

from repro.cc.incast import run_incast
from repro.common.units import KiB, MiB
from repro.telemetry import JsonlSink, LineageAnalyzer, RingBufferSink, Telemetry
from repro.telemetry.demo import run_demo
from repro.telemetry.report import build_tables, render_report


def traced_demo(**kw):
    ring = RingBufferSink(capacity=1 << 20)
    telemetry = Telemetry(trace=True, trace_sinks=[ring])
    result = run_demo(telemetry=telemetry, **kw)
    return result, ring


class TestClosedLoop:
    def test_dcqcn_reacts_to_ecn_echo(self):
        result = run_demo(
            messages=4, message_bytes=MiB, drop=0.0, cc="dcqcn",
            ecn_threshold_bytes=4 * KiB,
        )
        m = result.telemetry.metrics
        marked = m.value("net.dc-a<->dc-b.fwd.ecn_marked")
        assert marked > 0
        # Every mark the channel applied came back through the ACK echo.
        assert m.value("cc.dc-a.ecn_marked") == marked
        assert m.value("cc.dc-a.ecn_seen") >= marked
        assert result.pacer.controller.rate_bps < 100e9
        assert result.failed_writes == 0

    @pytest.mark.slow
    def test_swift_backs_off_under_incast(self):
        # A single self-clocked sender never inflates its own RTT (chunk
        # timestamps are stamped at injection), so congestion needs
        # contention: under incast Swift must take RTT samples, back off
        # from line rate, and beat the unpaced baseline.
        base = run_incast(cc="none", senders=8, duration=0.015)
        paced = run_incast(cc="swift", senders=8, duration=0.015)
        m = paced.telemetry.metrics
        assert m.value("cc.s0.rtt_samples") > 0
        assert all(p.controller.rate_bps < 10e9 for p in paced.pacers)
        assert paced.goodput_gbps > base.goodput_gbps
        assert paced.tail_drops < base.tail_drops

    @pytest.mark.parametrize("cc", ["swift", "dcqcn"])
    def test_controller_beats_unpaced_incast(self, cc):
        """The CI ``cc-smoke`` gate: a tiny sustained incast per algorithm;
        both closed-loop controllers must beat the unpaced goodput."""
        base = run_incast(cc="none", senders=8, duration=0.01)
        paced = run_incast(cc=cc, senders=8, duration=0.01)
        assert paced.delivered_messages > 0
        assert paced.goodput_gbps > base.goodput_gbps, (
            f"{cc} goodput {paced.goodput_gbps} did not beat "
            f"unpaced {base.goodput_gbps}"
        )

    def test_null_controller_never_paces(self):
        result = run_demo(messages=2, message_bytes=MiB, cc="none")
        m = result.telemetry.metrics
        assert m.value("cc.dc-a.paced_packets") == 0
        assert m.value("cc.dc-a.pacing_stalls") == 0

    def test_loss_feeds_controller(self):
        result = run_demo(
            messages=4, message_bytes=MiB, drop=0.05, cc="dcqcn", seed=3
        )
        assert result.telemetry.metrics.value("cc.dc-a.loss_signals") > 0


class TestByteIdentity:
    def _trace_bytes(self, tmp_path, cc, tag):
        path = os.path.join(tmp_path, f"{tag}.jsonl")
        sink = JsonlSink(path)
        telemetry = Telemetry(trace=True, trace_sinks=[sink])
        run_demo(
            messages=4, message_bytes=MiB, seed=7, drop=0.01,
            telemetry=telemetry, cc=cc,
        )
        sink.close()
        with open(path, "rb") as fh:
            return fh.read()

    def test_null_cc_trace_is_byte_identical_to_no_cc(self, tmp_path):
        """The regression gate: attaching the default pacer changes nothing."""
        without = self._trace_bytes(str(tmp_path), None, "off")
        null = self._trace_bytes(str(tmp_path), "none", "null")
        assert without == null

    def test_same_seed_cc_runs_are_deterministic(self, tmp_path):
        a = self._trace_bytes(str(tmp_path), "dcqcn", "a")
        b = self._trace_bytes(str(tmp_path), "dcqcn", "b")
        assert a == b


class TestObservability:
    def test_cc_wait_blamed_in_lineage(self):
        # A hard static rate (0.5 Gbit/s on a 100 Gbit/s link) makes
        # pacing the dominant cost; the cc_stall instants must classify
        # the idle gaps as cc_wait.
        result, ring = traced_demo(
            messages=2, message_bytes=MiB, drop=0.0, cc="none",
            cc_rate_bps=0.5e9,
        )
        assert result.telemetry.metrics.value("cc.dc-a.pacing_stalls") > 0
        analyzer = LineageAnalyzer.from_events(ring.events)
        analyzer.check()
        total_cc = sum(
            rec.attribution.get("cc_wait", 0.0) for rec in analyzer.completed
        )
        total_span = sum(rec.span for rec in analyzer.completed)
        assert total_cc > 0.5 * total_span
        # The blame table surfaces the category for `repro explain`.
        assert any(row[0] == "cc_wait" for row in analyzer.blame_table().rows)

    def test_congestion_table_in_report(self):
        result = run_demo(messages=2, message_bytes=MiB, cc="swift")
        tables = build_tables(result.telemetry.metrics)
        titles = [t.title for t in tables]
        assert any(t.startswith("Congestion control") for t in titles)
        text = render_report(result.telemetry.metrics)
        assert "cc.*" in text

    def test_no_congestion_table_without_cc(self):
        result = run_demo(messages=2, message_bytes=MiB, cc=None)
        titles = [t.title for t in build_tables(result.telemetry.metrics)]
        assert not any(t.startswith("Congestion control") for t in titles)

    def test_net_table_has_ecn_and_qdelay_columns(self):
        result = run_demo(
            messages=2, message_bytes=MiB, cc=None,
            ecn_threshold_bytes=4 * KiB,
        )
        (net,) = [
            t for t in build_tables(result.telemetry.metrics)
            if t.title.startswith("Channels")
        ]
        assert "ecn" in net.columns
        assert "qdelay_us" in net.columns
        ecn = [row[net.columns.index("ecn")] for row in net.rows]
        assert sum(ecn) > 0

    def test_rate_trace_counter_emitted(self):
        _, ring = traced_demo(
            messages=4, message_bytes=MiB, drop=0.0, cc="dcqcn",
            ecn_threshold_bytes=4 * KiB,
        )
        names = {e.name for e in ring.events}
        assert "cc_rate" in names
        assert "net_backlog" in names


class TestValidation:
    def test_unknown_cc_rejected(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            run_demo(messages=1, cc="cubic")
