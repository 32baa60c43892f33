"""MetricsRegistry: scoping, get-or-create, histograms, null path."""

import math

import pytest

from repro.common.errors import ConfigError
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Telemetry,
)
from repro.telemetry.metrics import NULL_HISTOGRAM


class TestCounterGauge:
    def test_counter_counts(self):
        c = Counter("x")
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_counter_float_increments(self):
        c = Counter("busy")
        c.inc(0.25)
        c.inc(0.5)
        assert c.value == pytest.approx(0.75)

    def test_gauge_set_add(self):
        g = Gauge("depth")
        g.set(5)
        g.add(-2)
        assert g.value == 3


class TestHistogram:
    def test_power_of_two_bucketing(self):
        h = Histogram("t")
        for v in (0.75, 3.0, 3.9, 1000.0):
            h.observe(v)
        spans = [(lo, hi) for lo, hi, _ in h.buckets()]
        # 0.75 in [0.5,1), 3.0 and 3.9 in [2,4), 1000 in [512,1024)
        assert spans == [(0.5, 1.0), (2.0, 4.0), (512.0, 1024.0)]
        counts = [n for _, _, n in h.buckets()]
        assert counts == [1, 2, 1]
        for lo, hi, _ in h.buckets():
            assert hi == 2 * lo

    def test_zero_bucket(self):
        h = Histogram("t")
        h.observe(0.0)
        h.observe(1.5)
        assert h.buckets()[0] == (0.0, 0.0, 1)
        assert h.percentile(25) == 0.0

    def test_summary_stats(self):
        h = Histogram("t")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(6.0)
        assert h.mean == pytest.approx(2.0)
        assert h.min == 1.0
        assert h.max == 3.0

    def test_percentile_geometric_midpoint(self):
        h = Histogram("t")
        for _ in range(100):
            h.observe(3.0)  # bucket [2, 4)
        assert h.percentile(50) == pytest.approx(math.sqrt(8.0))
        assert h.percentile(99) == pytest.approx(math.sqrt(8.0))

    def test_percentile_orders_buckets(self):
        h = Histogram("t")
        for _ in range(99):
            h.observe(1.5)  # [1, 2)
        h.observe(100.0)  # [64, 128)
        assert h.percentile(50) == pytest.approx(math.sqrt(2.0))
        assert h.percentile(100) == pytest.approx(math.sqrt(64 * 128))

    def test_empty_histogram(self):
        h = Histogram("t")
        assert h.percentile(99) == 0.0
        assert h.mean == 0.0
        assert h.snapshot()["count"] == 0

    def test_all_zero_observations_pin_percentiles_to_zero(self):
        h = Histogram("t")
        for _ in range(8):
            h.observe(0.0)
        assert h.percentile(50) == 0.0
        assert h.percentile(99) == 0.0
        assert h.percentile(100) == 0.0
        assert h.mean == 0.0
        assert h.snapshot()["count"] == 8

    def test_rejects_negative(self):
        h = Histogram("t")
        with pytest.raises(ConfigError):
            h.observe(-1.0)

    def test_rejects_nan(self):
        # NaN fails every comparison, so it would silently fall through
        # the bucketing into the zero bucket - reject it loudly instead.
        h = Histogram("t")
        with pytest.raises(ConfigError):
            h.observe(float("nan"))
        assert h.count == 0

    def test_rejects_bad_percentile(self):
        h = Histogram("t")
        with pytest.raises(ConfigError):
            h.percentile(101)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert len(reg) == 1

    def test_type_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(ConfigError):
            reg.gauge("a.b")
        with pytest.raises(ConfigError):
            reg.histogram("a.b")

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().counter("")

    def test_scope_prefixes_names(self):
        reg = MetricsRegistry()
        scope = reg.scope("sr.dc-a")
        c = scope.counter("rto_fires")
        assert c.name == "sr.dc-a.rto_fires"
        assert reg.get("sr.dc-a.rto_fires") is c

    def test_nested_scopes(self):
        reg = MetricsRegistry()
        inner = reg.scope("verbs").scope("dev0")
        assert inner.prefix == "verbs.dev0"
        assert inner.counter("x").name == "verbs.dev0.x"

    def test_names_prefix_filter_is_dotted(self):
        reg = MetricsRegistry()
        reg.counter("sr.dc-a.x")
        reg.counter("sr.dc-ab.x")  # must NOT match prefix "sr.dc-a"
        assert reg.names("sr.dc-a") == ["sr.dc-a.x"]
        assert reg.names("sr") == ["sr.dc-a.x", "sr.dc-ab.x"]
        assert reg.names() == ["sr.dc-a.x", "sr.dc-ab.x"]

    def test_value_and_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("b").set(7)
        reg.histogram("h").observe(1.0)
        assert reg.value("a") == 2
        assert reg.value("missing", default=-1) == -1
        with pytest.raises(ConfigError):
            reg.value("h")
        snap = reg.snapshot()
        assert snap["a"] == 2 and snap["b"] == 7
        assert snap["h"]["count"] == 1

    def test_snapshot_prefix_scoping(self):
        reg = MetricsRegistry()
        reg.counter("sr.dc-a.x").inc(1)
        reg.counter("sr.dc-ab.x").inc(2)  # must NOT match prefix "sr.dc-a"
        reg.gauge("net.depth").set(3)
        assert reg.snapshot("sr.dc-a") == {"sr.dc-a.x": 1}
        assert set(reg.snapshot("sr")) == {"sr.dc-a.x", "sr.dc-ab.x"}
        assert list(reg.snapshot()) == reg.names()


class TestDisabledRegistry:
    """A disabled registry retains nothing, but its counters and gauges
    are real instruments: hot paths store into their ``value`` slot."""

    def test_instruments_count_and_are_never_registered(self):
        reg = MetricsRegistry(enabled=False)
        c, g, h = reg.counter("a"), reg.gauge("b"), reg.histogram("c")
        c.inc(10)
        c.value += 5
        g.set(10)
        g.value = 7
        g.add(1)
        h.observe(10.0)
        assert (c.name, c.value) == ("a", 15)
        assert (g.name, g.value) == ("b", 8)
        assert h is NULL_HISTOGRAM and h.count == 0
        assert h.percentile(99) == 0.0
        assert len(reg) == 0
        assert reg.snapshot() == {}
        assert reg.get("a") is None and reg.value("a") == 0

    def test_requests_do_not_share_state(self):
        reg = MetricsRegistry(enabled=False)
        c1, c2 = reg.counter("x"), reg.counter("x")
        g1, g2 = reg.gauge("y"), reg.gauge("y")
        assert c1 is not c2 and g1 is not g2
        c1.value += 3
        g1.value = 2.5
        assert (c2.value, g2.value) == (0, 0.0)
        assert len(reg) == 0

    def test_scopes_work_when_disabled(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.scope("x").scope("y").counter("z")
        assert c.name == "x.y.z"
        c.value += 1
        assert c.value == 1
        assert len(reg) == 0


class TestTelemetryFacade:
    def test_defaults(self):
        t = Telemetry()
        assert t.metrics.enabled
        assert not t.trace.enabled

    def test_unique_sequences_per_label(self):
        t = Telemetry()
        assert [t.unique("cq") for _ in range(3)] == ["cq0", "cq1", "cq2"]
        assert t.unique("qp") == "qp0"
