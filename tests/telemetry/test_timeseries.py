"""Windowed metric series: lazy sampling, ring semantics, derived views."""

import pytest

from repro.common.errors import ConfigError
from repro.sim.engine import SimulationError, Simulator
from repro.telemetry import Telemetry, TimeseriesSampler


def _armed_sim(window=0.01, capacity=8, prefixes=("app",)):
    sim = Simulator(
        telemetry=Telemetry(
            timeseries=TimeseriesSampler(
                window=window, capacity=capacity, prefixes=prefixes
            )
        )
    )
    return sim, sim.telemetry.timeseries


class TestConfig:
    def test_window_must_be_positive(self):
        with pytest.raises(ConfigError):
            TimeseriesSampler(window=0.0)

    def test_capacity_floor(self):
        with pytest.raises(ConfigError):
            TimeseriesSampler(capacity=1)

    def test_detached_sampler_never_fires(self):
        sampler = TimeseriesSampler()
        assert sampler.next_deadline == float("inf")

    def test_attach_second_sampler_rejected(self):
        sim, _ = _armed_sim()
        with pytest.raises(SimulationError):
            sim.attach_sampler(TimeseriesSampler())

    def test_reattach_same_sampler_is_idempotent(self):
        sim, sampler = _armed_sim()
        sim.attach_sampler(sampler)


class TestSampling:
    def test_counter_windows_close_at_boundaries(self):
        sim, sampler = _armed_sim(window=0.01)
        c = sim.telemetry.metrics.counter("app.bytes")
        for i in range(5):
            sim.call_at(0.004 + i * 0.01, lambda: c.inc(100))
        sim.call_at(0.065, lambda: None)
        sim.run()
        series = sampler.series("app.bytes")
        # One cumulative point at each boundary.
        assert series.times[0] == pytest.approx(0.01)
        assert list(series.values) == [100, 200, 300, 400, 500, 500]

    def test_value_at_boundary_excludes_boundary_event(self):
        # The sampler runs before the boundary event's callbacks: a value
        # recorded at B reflects state strictly before B's handlers.
        sim, sampler = _armed_sim(window=0.01)
        c = sim.telemetry.metrics.counter("app.bytes")
        sim.call_at(0.01, lambda: c.inc(7))
        sim.call_at(0.02, lambda: None)
        sim.run()
        series = sampler.series("app.bytes")
        points = list(zip(series.times, series.values))
        assert points[0] == (pytest.approx(0.01), 0)
        assert points[1] == (pytest.approx(0.02), 7)

    def test_gauge_series_records_raw_values(self):
        sim, sampler = _armed_sim(window=0.01)
        g = sim.telemetry.metrics.gauge("app.depth")
        sim.call_at(0.005, lambda: g.set(3))
        sim.call_at(0.015, lambda: g.set(9))
        sim.call_at(0.035, lambda: None)
        sim.run()
        assert list(sampler.series("app.depth").values) == [3, 9, 9]

    def test_ring_evicts_oldest(self):
        sim, sampler = _armed_sim(window=0.01, capacity=4)
        c = sim.telemetry.metrics.counter("app.bytes")
        for i in range(10):
            sim.call_at(0.001 + i * 0.01, lambda: c.inc(1))
        sim.run()
        series = sampler.series("app.bytes")
        assert len(series.times) == 4
        # 9 boundaries closed (0.01..0.09); the ring kept the last four.
        assert series.times[0] == pytest.approx(0.06)

    def test_idle_gap_skips_to_last_capacity_windows(self):
        sim, sampler = _armed_sim(window=0.01, capacity=4)
        c = sim.telemetry.metrics.counter("app.bytes")
        sim.call_at(0.001, lambda: c.inc(1))
        sim.call_at(10.0, lambda: c.inc(1))  # ~1000 windows of silence
        sim.run()
        # O(capacity) points materialized, not O(gap / window).
        assert len(sampler.series("app.bytes").times) <= 2 * 4
        assert sampler.windows_closed <= 2 * 4

    def test_instruments_created_mid_run_join_next_window(self):
        sim, sampler = _armed_sim(window=0.01)
        metrics = sim.telemetry.metrics
        metrics.counter("app.early")
        sim.call_at(0.025, lambda: metrics.counter("app.late").inc(5))
        sim.call_at(0.05, lambda: None)
        sim.run()
        late = sampler.series("app.late")
        assert late is not None
        assert late.latest() == 5
        assert len(late.times) < len(sampler.series("app.early").times)

    def test_final_poll_at_run_end(self):
        # run() closes boundaries reached by the last event even when no
        # later event crosses them.
        sim, sampler = _armed_sim(window=0.01)
        c = sim.telemetry.metrics.counter("app.bytes")
        sim.call_at(0.03, lambda: c.inc(1))
        sim.run()
        assert sampler.windows_closed == 3

    def test_meta_metrics_and_self_exclusion(self):
        sim, sampler = _armed_sim(window=0.01, prefixes=("",))
        sim.telemetry.metrics.counter("app.bytes").inc()
        sim.call_at(0.05, lambda: None)
        sim.run()
        metrics = sim.telemetry.metrics
        assert metrics.value("timeseries.windows_closed") == sampler.windows_closed
        assert metrics.value("timeseries.points_recorded") > 0
        # Watching everything ("") must still skip the sampler's own meta
        # metrics, or every window would dirty the registry it samples.
        assert all(sampler.series(n) is None for n in metrics.names("timeseries"))

    def test_on_window_listener_sees_each_boundary(self):
        sim, sampler = _armed_sim(window=0.01)
        ends = []
        sampler.on_window(ends.append)
        sim.call_at(0.035, lambda: None)
        sim.run()
        assert ends == [pytest.approx(b) for b in (0.01, 0.02, 0.03)]


class TestDerivedViews:
    def _series(self, values, window=1.0):
        from repro.telemetry.timeseries import WindowedSeries

        s = WindowedSeries("x", capacity=16)
        for i, v in enumerate(values):
            s.times.append((i + 1) * window)
            s.values.append(v)
        return s

    def test_delta_over_lookback(self):
        s = self._series([10, 30, 60, 100])
        assert s.delta_over(1) == 40
        assert s.delta_over(2) == 70
        assert s.delta_over(100) == 100  # clamped to full history

    def test_span_over_lookback(self):
        s = self._series([1, 2, 3])
        assert s.span_over(2) == pytest.approx(2.0)
        assert s.span_over(50) == pytest.approx(3.0)

    def test_lookback_validation(self):
        s = self._series([1])
        with pytest.raises(ConfigError):
            s.delta_over(0)
        with pytest.raises(ConfigError):
            s.span_over(-1)

    def test_empty_series_views(self):
        s = self._series([])
        assert s.latest() is None
        assert s.delta_over(3) == 0.0

    def test_histograms_are_not_sampled(self):
        sim, sampler = _armed_sim(window=0.01)
        sim.telemetry.metrics.histogram("app.lat").observe(0.001)
        sim.telemetry.metrics.counter("app.bytes").inc()
        sim.call_at(0.035, lambda: None)
        sim.run()
        assert sampler.series("app.lat") is None
        assert sampler.series("app.bytes").latest() == 1
