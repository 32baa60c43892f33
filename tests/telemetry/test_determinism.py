"""Two same-seed runs must emit byte-identical traces and equal metrics.

Trace events are stamped with simulated time only, serialized as canonical
JSON (sorted keys, fixed separators), and track names come from
deterministic ``Telemetry.unique`` sequences -- so the whole observability
surface is a pure function of the seed.
"""

import io

from repro.telemetry import (
    ChromeTraceSink,
    JsonlSink,
    Telemetry,
    TimeseriesSampler,
)
from repro.telemetry.demo import run_demo

MIB = 1 << 20


def _run(seed: int):
    jsonl_buf = io.StringIO()
    chrome = ChromeTraceSink()
    telemetry = Telemetry(trace=True, trace_sinks=[JsonlSink(jsonl_buf), chrome])
    result = run_demo(
        protocol="sr", messages=2, message_bytes=MIB, drop=0.02, seed=seed,
        telemetry=telemetry,
    )
    return result, jsonl_buf.getvalue(), chrome.to_json()


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        result_a, jsonl_a, chrome_a = _run(seed=5)
        result_b, jsonl_b, chrome_b = _run(seed=5)
        assert jsonl_a  # the run actually traced something
        assert jsonl_a == jsonl_b
        assert chrome_a == chrome_b
        assert (
            result_a.telemetry.metrics.snapshot()
            == result_b.telemetry.metrics.snapshot()
        )
        assert result_a.elapsed == result_b.elapsed

    def test_different_seed_diverges(self):
        # Sanity: the equality above is meaningful, not vacuous.
        _, jsonl_a, _ = _run(seed=5)
        _, jsonl_b, _ = _run(seed=6)
        assert jsonl_a != jsonl_b


class TestSamplerDeterminism:
    """Arming the windowed sampler must not perturb the simulation."""

    @staticmethod
    def _sampled_run(seed: int, armed: bool):
        buf = io.StringIO()
        sampler = (
            TimeseriesSampler(window=1e-3, capacity=256) if armed else None
        )
        telemetry = Telemetry(
            trace=True, trace_sinks=[JsonlSink(buf)], timeseries=sampler,
        )
        run_demo(
            protocol="sr", messages=2, message_bytes=MIB, drop=0.02,
            seed=seed, telemetry=telemetry,
        )
        return sampler, telemetry.metrics.snapshot(), buf.getvalue()

    def test_armed_run_is_byte_identical(self):
        sampler_a, snap_a, trace_a = self._sampled_run(seed=5, armed=True)
        sampler_b, snap_b, trace_b = self._sampled_run(seed=5, armed=True)
        assert sampler_a.windows_closed > 0
        assert trace_a == trace_b
        assert snap_a == snap_b
        for name in (n for n in snap_a if sampler_a.series(n) is not None):
            a, b = sampler_a.series(name), sampler_b.series(name)
            assert list(zip(a.times, a.values)) == (
                list(zip(b.times, b.values))
            )

    def test_armed_trace_equals_unarmed_trace(self):
        # The sampler is lazy and event-free: same seed, same bytes,
        # whether or not it is attached.
        _, snap_armed, trace_armed = self._sampled_run(seed=5, armed=True)
        _, snap_plain, trace_plain = self._sampled_run(seed=5, armed=False)
        assert trace_armed == trace_plain
        stripped = {
            k: v for k, v in snap_armed.items()
            if not k.startswith("timeseries")
        }
        assert stripped == snap_plain
