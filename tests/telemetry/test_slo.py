"""SLO plane: spec validation, SLI math, burn detection, compliance."""

import pytest

from repro.common.errors import ConfigError
from repro.sim.engine import Simulator
from repro.telemetry import (
    BurnPolicy,
    RingBufferSink,
    SloConfig,
    SloSpec,
    SloTracker,
    Telemetry,
    TimeseriesSampler,
)

WINDOW = 0.01


class TestSpecValidation:
    def test_tenant_required(self):
        with pytest.raises(ConfigError):
            SloSpec(tenant="")

    def test_goodput_needs_quota(self):
        with pytest.raises(ConfigError):
            SloSpec(tenant="t0", goodput_fraction=0.5)

    def test_fraction_ranges(self):
        with pytest.raises(ConfigError):
            SloSpec(tenant="t0", delivery_ratio=0.0)
        with pytest.raises(ConfigError):
            SloSpec(tenant="t0", delivery_ratio=1.5)
        with pytest.raises(ConfigError):
            SloSpec(tenant="t0", error_budget=0.0)

    def test_targets_only_includes_set_slis(self):
        spec = SloSpec(tenant="t0", delivery_ratio=0.9)
        assert spec.targets == {"delivery": 0.9}

    def test_burn_policy_validation(self):
        with pytest.raises(ConfigError):
            BurnPolicy(short_windows=0)
        with pytest.raises(ConfigError):
            BurnPolicy(short_windows=4, long_windows=2)
        with pytest.raises(ConfigError):
            BurnPolicy(threshold=0.0)

    def test_duplicate_tenant_rejected(self):
        sampler = TimeseriesSampler()
        specs = [SloSpec(tenant="t0"), SloSpec(tenant="t0")]
        with pytest.raises(ConfigError):
            SloTracker(sampler, specs)

    def test_config_spec_for_skips_goodput_without_quota(self):
        config = SloConfig(goodput_fraction=0.5, delivery_ratio=0.9)
        with_quota = config.spec_for("t0", 1e9)
        without = config.spec_for("t1", None)
        assert "goodput" in with_quota.targets
        assert "goodput" not in without.targets
        assert without.targets["delivery"] == 0.9


class _Harness:
    """A tenant's fabric counters on a sampled simulator, driven by hand."""

    def __init__(self, spec, *, trace=False):
        self.ring = RingBufferSink(capacity=4096)
        self.sampler = TimeseriesSampler(window=WINDOW, capacity=64)
        self.sim = Simulator(
            telemetry=Telemetry(
                timeseries=self.sampler,
                trace=trace,
                trace_sinks=[self.ring] if trace else (),
            )
        )
        scope = self.sim.telemetry.metrics.scope(f"fabric.tenant.{spec.tenant}")
        self.submitted = scope.counter("flows_submitted")
        self.completed = scope.counter("flows_completed")
        self.failed = scope.counter("flows_failed")
        self.bytes_acked = scope.counter("bytes_acked")
        self.segments_acked = scope.counter("segments_acked")
        self.retransmits = scope.counter("retransmits")
        self.tracker = SloTracker(self.sampler, [spec])

    def at(self, t, fn):
        self.sim.call_at(t, fn)

    def run(self, until):
        self.at(until, lambda: None)
        self.sim.run()


class TestBurnDetection:
    def test_sustained_delivery_failures_burn(self):
        spec = SloSpec(tenant="t0", delivery_ratio=0.9, error_budget=0.1)
        h = _Harness(spec, trace=True)
        # Every window: one flow submitted, one flow failed.
        for i in range(12):
            t = 0.001 + i * WINDOW
            h.at(t, lambda: (h.submitted.inc(), h.failed.inc()))
        h.run(0.15)
        assert h.tracker.burns[("t0", "delivery")] > 0
        metrics = h.sim.telemetry.metrics
        assert metrics.value("slo.t0.burn_windows") > 0
        assert metrics.value("slo.t0.delivery_burn_windows") > 0
        assert metrics.value("slo.t0.delivery") == 0.0
        burns = [e for e in h.ring.events if e.name == "slo_burn"]
        assert burns and burns[0].args["sli"] == "delivery"
        assert burns[0].track == "slo.t0"

    def test_single_bad_window_suppressed_by_long_lookback(self):
        # 1 failing window in a sea of successes: the short lookback sees
        # it, the long one dilutes it below threshold - no page.
        spec = SloSpec(tenant="t0", delivery_ratio=0.9, error_budget=0.5)
        h = _Harness(spec)
        for i in range(16):
            t = 0.001 + i * WINDOW
            if i == 8:
                h.at(t, lambda: (h.submitted.inc(), h.failed.inc()))
            else:
                h.at(t, lambda: [
                    (h.submitted.inc(), h.completed.inc()) for _ in range(9)
                ])
        h.run(0.2)
        assert h.tracker.burns == {}

    def test_idle_tenant_is_demand_gated(self):
        # Unreachable targets, but the tenant never asks for service.
        spec = SloSpec(
            tenant="t0", quota_bps=1e12, goodput_fraction=1.0,
            delivery_ratio=1.0,
        )
        h = _Harness(spec)
        h.run(0.2)
        assert h.tracker.burns == {}
        assert h.tracker.windows_evaluated > 0

    def test_goodput_shortfall_burns(self):
        spec = SloSpec(
            tenant="t0", quota_bps=8e6, goodput_fraction=0.5,
            error_budget=0.1,
        )
        h = _Harness(spec)
        # Demand exists (an outstanding flow) but almost no bytes move:
        # 1000 B/window = 0.8 Mbit/s against a 4 Mbit/s floor.
        h.at(0.001, h.submitted.inc)
        for i in range(12):
            h.at(0.002 + i * WINDOW, lambda: h.bytes_acked.inc(1000))
        h.run(0.15)
        assert h.tracker.burns[("t0", "goodput")] > 0

    def test_retx_overhead_burns(self):
        spec = SloSpec(tenant="t0", max_retx_overhead=0.05, error_budget=0.25)
        h = _Harness(spec)
        h.at(0.001, h.submitted.inc)
        for i in range(12):
            # 1 retransmit per 2 acked segments: 33% overhead vs 5% target.
            h.at(0.002 + i * WINDOW, lambda: (
                h.segments_acked.inc(2), h.retransmits.inc()
            ))
        h.run(0.15)
        assert h.tracker.burns[("t0", "retx")] > 0


class TestSummary:
    def test_lifetime_compliance_and_rows(self):
        spec = SloSpec(
            tenant="t0", quota_bps=1e6, goodput_fraction=0.25,
            delivery_ratio=0.9, max_retx_overhead=0.5,
        )
        h = _Harness(spec)
        h.at(0.001, lambda: (
            h.submitted.inc(10), h.completed.inc(10),
            h.bytes_acked.inc(125_000), h.segments_acked.inc(100),
        ))
        h.run(0.1)
        summary = h.tracker.summary(duration=0.1)
        assert summary.compliant
        by_sli = {r.sli: r for r in summary.rows}
        # 1 Mbit delivered over 0.1 s against a 1 Mbit/s quota = 10x.
        assert by_sli["goodput"].value == pytest.approx(10.0)
        assert by_sli["delivery"].value == 1.0
        assert by_sli["retx"].value == 0.0  # segments moved, none retransmitted
        assert by_sli["retx"].compliant
        assert "SLO compliance" in summary.table().render()

    def test_violation_reported(self):
        spec = SloSpec(tenant="t0", delivery_ratio=0.9)
        h = _Harness(spec)
        h.at(0.001, lambda: (h.submitted.inc(4), h.failed.inc(4)))
        h.run(0.05)
        summary = h.tracker.summary(duration=0.05)
        assert not summary.compliant
        assert [r.sli for r in summary.violations] == ["delivery"]

    def test_a_tenant_without_signal_is_vacuously_compliant(self):
        spec = SloSpec(
            tenant="t0", delivery_ratio=0.9, max_retx_overhead=0.1,
        )
        h = _Harness(spec)
        h.run(0.05)
        summary = h.tracker.summary(duration=0.05)
        assert summary.compliant
        assert {r.sli: r.value for r in summary.rows} == {
            "delivery": None, "retx": None,
        }

    def test_duration_must_be_positive(self):
        h = _Harness(SloSpec(tenant="t0", delivery_ratio=0.9))
        h.run(0.05)
        with pytest.raises(ConfigError):
            h.tracker.summary(duration=0.0)
