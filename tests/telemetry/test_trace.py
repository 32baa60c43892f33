"""Tracer and sinks: simulated-time stamps, JSONL and Chrome round-trips."""

import io
import json

import pytest

from repro.common.errors import ConfigError
from repro.sim.engine import Simulator
from repro.telemetry import (
    ChromeTraceSink,
    JsonlSink,
    RingBufferSink,
    Telemetry,
    TraceEvent,
    Tracer,
    flow_key,
)


def make_tracer(*sinks):
    return Tracer(enabled=True, sinks=sinks)


class TestTracer:
    def test_disabled_tracer_emits_nothing(self):
        ring = RingBufferSink()
        tracer = Tracer(enabled=False, sinks=[ring])
        tracer.instant("x", cat="c", track="t")
        tracer.complete("y", cat="c", track="t", start=0.0)
        tracer.counter("z", cat="c", track="t", v=1)
        assert ring.total_emitted == 0

    def test_instant_stamps_clock(self):
        ring = RingBufferSink()
        tracer = make_tracer(ring)
        tracer.bind_clock(lambda: 42.5)
        tracer.instant("drop", cat="net", track="net.fwd", psn=7)
        (ev,) = ring.events
        assert ev.ph == "i"
        assert ev.ts == 42.5
        assert ev.args == {"psn": 7}

    def test_complete_duration_clamped_nonnegative(self):
        ring = RingBufferSink()
        tracer = make_tracer(ring)
        tracer.bind_clock(lambda: 1.0)
        tracer.complete("tx", cat="net", track="t", start=0.25)
        tracer.complete("weird", cat="net", track="t", start=5.0)
        first, second = ring.events
        assert first.dur == pytest.approx(0.75)
        assert second.dur == 0.0

    def test_simulator_binds_clock(self):
        telemetry = Telemetry(trace=True, trace_sinks=[ring := RingBufferSink()])
        sim = Simulator(telemetry=telemetry)

        def proc():
            yield sim.timeout(1.5)
            sim.telemetry.trace.instant("mark", cat="test", track="t")

        sim.process(proc())
        sim.run()
        (ev,) = ring.events
        assert ev.ts == pytest.approx(1.5)

    def test_fan_out_to_multiple_sinks(self):
        a, b = RingBufferSink(), RingBufferSink()
        tracer = make_tracer(a, b)
        tracer.instant("x", cat="c", track="t")
        assert a.total_emitted == b.total_emitted == 1


class TestRingBufferSink:
    def test_wraps_and_counts_drops(self):
        ring = RingBufferSink(capacity=3)
        tracer = make_tracer(ring)
        for i in range(5):
            tracer.instant(f"e{i}", cat="c", track="t")
        assert ring.total_emitted == 5
        assert ring.dropped == 2
        assert [e.name for e in ring.events] == ["e2", "e3", "e4"]

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            RingBufferSink(capacity=0)


class TestJsonlSink:
    def test_round_trip(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        tracer = make_tracer(sink)
        tracer.bind_clock(lambda: 2.0)
        tracer.instant("drop", cat="net", track="net.fwd", psn=3)
        tracer.complete("tx", cat="net", track="net.fwd", start=1.0, bytes=4096)
        sink.close()
        buf.seek(0)
        events = JsonlSink.read(buf)
        assert [e.name for e in events] == ["drop", "tx"]
        assert events[0] == TraceEvent(
            name="drop", cat="net", ph="i", ts=2.0, track="net.fwd",
            args={"psn": 3},
        )
        assert events[1].dur == pytest.approx(1.0)
        assert events[1].args["bytes"] == 4096

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        tracer = make_tracer(sink)
        tracer.instant("x", cat="c", track="t")
        sink.close()
        events = JsonlSink.read(path)
        assert len(events) == 1 and events[0].name == "x"

    def test_lines_are_canonical_json(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        tracer = make_tracer(sink)
        tracer.instant("x", cat="c", track="t", b=1, a=2)
        line = buf.getvalue().strip()
        assert json.loads(line)  # valid JSON
        assert ": " not in line and ", " not in line  # compact separators
        keys = list(json.loads(line))
        assert keys == sorted(keys)


class TestChromeTraceSink:
    def test_format_and_units(self):
        sink = ChromeTraceSink()
        tracer = make_tracer(sink)
        tracer.bind_clock(lambda: 0.002)
        tracer.complete("tx", cat="net", track="net.fwd", start=0.001)
        tracer.instant("drop", cat="net", track="net.fwd")
        tracer.counter("rate", cat="net", track="net.fwd", pkts=5)
        doc = json.loads(sink.to_json())
        assert doc["displayTimeUnit"] == "ms"
        data = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        x, i, c = data
        assert x["ph"] == "X" and x["ts"] == pytest.approx(1000.0)
        assert x["dur"] == pytest.approx(1000.0)  # 1 ms in us
        assert i["ph"] == "i" and i["s"] == "t"
        assert c["ph"] == "C" and c["args"] == {"pkts": 5}

    def test_track_interning_and_metadata(self):
        sink = ChromeTraceSink()
        tracer = make_tracer(sink)
        tracer.instant("a", cat="c", track="alpha")
        tracer.instant("b", cat="c", track="beta")
        tracer.instant("c", cat="c", track="alpha")
        events = sink.trace_events()
        meta = [e for e in events if e["ph"] == "M"]
        data = [e for e in events if e["ph"] != "M"]
        assert meta[0]["name"] == "process_name"
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in meta if e["name"] == "thread_name"
        }
        assert thread_names == {0: "alpha", 1: "beta"}
        assert [e["tid"] for e in data] == [0, 1, 0]
        assert all(e["pid"] == ChromeTraceSink.PID for e in events)

    def test_write_to_path(self, tmp_path):
        path = tmp_path / "trace.json"
        sink = ChromeTraceSink()
        make_tracer(sink).instant("x", cat="c", track="t")
        sink.write(str(path))
        doc = json.loads(path.read_text())
        assert any(e["name"] == "x" for e in doc["traceEvents"])
        assert len(sink) == 1


class TestJsonlByteIdentity:
    def test_jsonl_from_dict_jsonl_is_byte_identical(self):
        """JSONL -> from_dict -> JSONL must reproduce the exact bytes."""
        buf = io.StringIO()
        sink = JsonlSink(buf)
        tracer = make_tracer(sink)
        tracer.bind_clock(lambda: 1.25)
        tracer.instant("drop", cat="net", track="net.fwd", psn=3, bytes=4096)
        tracer.complete("tx", cat="net", track="net.fwd", start=1.0, msg=7)
        tracer.counter("rate", cat="net", track="net.fwd", pkts=5)
        tracer.flow_start("retx", cat="sr", track="sr.a", flow_id=42, chunk=1)
        tracer.flow_finish("retx", cat="net", track="net.fwd", flow_id=42)
        sink.close()
        original = buf.getvalue()
        assert original

        buf.seek(0)
        events = JsonlSink.read(buf)
        rewrite_buf = io.StringIO()
        rewrite = JsonlSink(rewrite_buf)
        for ev in events:
            rewrite.emit(ev)
        rewrite.close()
        assert rewrite_buf.getvalue() == original


class TestChromeValidity:
    def test_every_record_has_required_trace_event_fields(self):
        """Chrome output loads as JSON; every record carries ph/ts/pid/tid."""
        sink = ChromeTraceSink()
        tracer = make_tracer(sink)
        tracer.bind_clock(lambda: 0.5)
        tracer.complete("tx", cat="net", track="net.fwd", start=0.25)
        tracer.instant("drop", cat="net", track="net.fwd")
        tracer.counter("rate", cat="net", track="net.fwd", pkts=1)
        tracer.flow_start("retx", cat="sr", track="sr.a", flow_id=9)
        tracer.flow_finish("retx", cat="net", track="net.fwd", flow_id=9)
        doc = json.loads(sink.to_json())
        assert doc["traceEvents"]
        for rec in doc["traceEvents"]:
            for field in ("ph", "ts", "pid", "tid"):
                assert field in rec, f"{rec['name']} missing {field!r}"

    def test_flow_records_carry_id_and_binding_point(self):
        sink = ChromeTraceSink()
        tracer = make_tracer(sink)
        tracer.flow_start("retx", cat="sr", track="sr.a", flow_id=77)
        tracer.flow_finish("retx", cat="net", track="net.b", flow_id=77)
        start, finish = (e for e in sink.trace_events() if e["ph"] in "sf")
        assert start["ph"] == "s" and start["id"] == 77
        assert finish["ph"] == "f" and finish["id"] == 77
        assert finish["bp"] == "e"
        assert "bp" not in start


class TestFlowKey:
    def test_deterministic_and_distinct(self):
        assert flow_key(1, 2, 3) == flow_key(1, 2, 3)
        keys = {
            flow_key(m, c, a)
            for m in range(4) for c in range(4) for a in range(1, 4)
        }
        assert len(keys) == 4 * 4 * 3

    def test_packing_layout(self):
        assert flow_key(0, 0, 1) == 1
        assert flow_key(0, 1, 0) == 1 << 8
        assert flow_key(1, 0, 0) == 1 << 24


class TestTraceEvent:
    def test_to_dict_omits_empty_fields(self):
        ev = TraceEvent(name="x", cat="c", ph="i", ts=1.0, track="t")
        d = ev.to_dict()
        assert "dur" not in d and "args" not in d
        assert TraceEvent.from_dict(d) == ev

    def test_round_trip_with_all_fields(self):
        ev = TraceEvent(
            name="x", cat="c", ph="X", ts=1.0, track="t", dur=0.5,
            args={"k": 1},
        )
        assert TraceEvent.from_dict(ev.to_dict()) == ev
