"""Fairness/isolation scenarios, reporting and end-to-end determinism."""

import dataclasses

import pytest

from repro.common.errors import ConfigError
from repro.fabric import (
    FairnessConfig,
    ScaleConfig,
    fairness_scenario,
    jain_index,
    scale_scenario,
    smoke_config,
    tenant_table,
)
from repro.telemetry import RingBufferSink, Telemetry
from repro.telemetry.lineage import LineageAnalyzer

# One small contended run shared by several tests (runs once per session).
_CACHE = {}


def smoke_result(**overrides):
    key = tuple(sorted(overrides.items()))
    if key not in _CACHE:
        config = dataclasses.replace(smoke_config(seed=0), **overrides)
        _CACHE[key] = fairness_scenario(config)
    return _CACHE[key]


class TestFairness:
    def test_enforcement_protects_victim(self):
        result = smoke_result()
        assert result.retention >= 0.5  # the PR's acceptance criterion
        assert result.solo_goodput_bps > 0
        # The rogue is alive but capped near its quota.
        rogue = {r.name: r for r in result.reports}["rogue"]
        quota = (
            result.config.rogue_quota_fraction * result.config.bottleneck_bps
        )
        assert rogue.goodput_bps < 1.5 * quota

    def test_unenforced_rogue_collapses_victim(self):
        enforced = smoke_result()
        collapsed = smoke_result(enforce_quotas=False)
        assert collapsed.retention < enforced.retention
        assert collapsed.retention < 0.5

    def test_no_rogue_baseline_retention_is_full(self):
        result = smoke_result(rogue=False)
        assert result.retention == pytest.approx(1.0, abs=0.05)
        assert all(r.name != "rogue" for r in result.reports)

    def test_reports_and_table(self):
        result = smoke_result()
        assert {r.name for r in result.reports} == {"t0", "rogue"}
        victim = {r.name: r for r in result.reports}["t0"]
        assert victim.p99_s >= victim.p50_s > 0
        rendered = tenant_table(result.reports).render()
        assert "rogue" in rendered and "t0" in rendered

    def test_jain_index_bounds(self):
        assert jain_index([]) == 1.0
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
        assert jain_index([0.0, 0.0]) == 1.0  # nobody got anything: equal

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FairnessConfig(victims=0)


class TestDeterminism:
    def test_same_seed_same_digest(self):
        a = fairness_scenario(smoke_config(seed=3))
        b = fairness_scenario(smoke_config(seed=3))
        assert a.digest == b.digest
        assert a.retention == b.retention

    def test_tracing_does_not_perturb_metrics(self):
        # The observer effect check: a traced run must produce the same
        # fabric metrics as an untraced one.
        plain = fairness_scenario(smoke_config(seed=0))
        ring = RingBufferSink(capacity=1 << 20)
        traced = fairness_scenario(
            smoke_config(seed=0),
            telemetry=Telemetry(trace=True, trace_sinks=[ring]),
        )
        assert traced.digest == plain.digest
        assert len(ring.events) > 0


class TestLineageIntegration:
    def test_per_tenant_lineage_attribution(self):
        ring = RingBufferSink(capacity=1 << 20)
        result = fairness_scenario(
            smoke_config(seed=0),
            telemetry=Telemetry(trace=True, trace_sinks=[ring]),
        )
        analyzer = LineageAnalyzer.from_events(ring.events)
        groups = analyzer.by_tenant()
        assert set(groups) == {"t0", "rogue"}
        victim_report = {r.name: r for r in result.reports}["t0"]
        # Every completed victim flow has a lineage with a positive span.
        assert len(groups["t0"]) == victim_report.flows_completed
        assert all(m.span > 0 for m in groups["t0"])
        # The throttled rogue's wait shows up as cc_wait blame.
        rogue_blame = {}
        for m in groups["rogue"]:
            for cat, sec in m.attribution.items():
                rogue_blame[cat] = rogue_blame.get(cat, 0.0) + sec
        assert max(rogue_blame, key=rogue_blame.get) == "cc_wait"


class TestScaleSmall:
    """Scaled-down scale scenario (the full version is a claims-table row)."""

    CFG = ScaleConfig(
        tenants=40, duration=0.005, offered_load_bps=40e9,
        tors=2, hosts_per_tor=2,
    )

    def test_completes_and_drains(self):
        result = scale_scenario(self.CFG)
        assert result.messages > 100
        assert result.completed + result.failed == result.messages
        assert result.failed == 0
        assert result.drained_at >= self.CFG.duration

    def test_same_seed_byte_identical(self):
        a = scale_scenario(self.CFG)
        b = scale_scenario(self.CFG)
        assert a.digest == b.digest
        assert a.messages == b.messages

    def test_different_seed_different_schedule(self):
        a = scale_scenario(self.CFG)
        b = scale_scenario(dataclasses.replace(self.CFG, seed=1))
        assert a.messages != b.messages or a.digest != b.digest