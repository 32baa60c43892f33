"""Analytic SR tail function and percentiles vs Monte-Carlo."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.units import KiB
from repro.models import sr_model
from repro.models.params import ModelParams
from repro.models.sr_model import (
    sr_completion_percentile,
    sr_completion_tail,
    sr_sample_completion,
)


def params(drop=1e-3):
    return ModelParams(
        bandwidth_bps=400e9, rtt=25e-3, chunk_bytes=64 * KiB,
        drop_probability=drop,
    )


class TestTailFunction:
    def test_tail_is_one_before_injection_finishes(self):
        p = params()
        m = 1000
        floor = m * p.t_inj + p.rtt
        assert sr_completion_tail(p, m, floor * 0.5) == 1.0
        assert sr_completion_tail(p, m, floor) == 1.0

    def test_tail_is_zero_for_lossless(self):
        p = params(drop=0.0)
        m = 100
        floor = m * p.t_inj + p.rtt
        assert sr_completion_tail(p, m, floor * 1.01) == 0.0

    def test_tail_is_monotone_decreasing(self):
        p = params()
        m = 2048
        floor = m * p.t_inj + p.rtt
        ts = np.linspace(floor * 1.001, floor + 5 * p.retransmission_overhead, 40)
        tails = [sr_completion_tail(p, m, t) for t in ts]
        assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))
        assert tails[0] > tails[-1]

    def test_tail_matches_monte_carlo(self):
        p = params(drop=1e-3)
        m = 2048
        samples = sr_sample_completion(p, m, 20000, rng=np.random.default_rng(0))
        for t in (
            m * p.t_inj + p.rtt + 0.5 * p.retransmission_overhead,
            m * p.t_inj + p.rtt + 1.5 * p.retransmission_overhead,
        ):
            empirical = float((samples >= t).mean())
            analytic = sr_completion_tail(p, m, t)
            assert analytic == pytest.approx(empirical, abs=0.02)


class TestPercentiles:
    def test_lossless_percentiles_are_floor(self):
        p = params(drop=0.0)
        m = 500
        floor = m * p.t_inj + p.rtt
        assert sr_completion_percentile(p, m, 99.9) == pytest.approx(floor)

    def test_percentile_matches_monte_carlo(self):
        p = params(drop=1e-3)
        m = 2048
        samples = sr_sample_completion(p, m, 40000, rng=np.random.default_rng(1))
        for pct in (50.0, 99.0, 99.9):
            analytic = sr_completion_percentile(p, m, pct)
            empirical = float(np.percentile(samples, pct))
            assert analytic == pytest.approx(empirical, rel=0.05)

    def test_percentiles_are_ordered(self):
        p = params(drop=1e-2)
        m = 2048
        p50 = sr_completion_percentile(p, m, 50)
        p99 = sr_completion_percentile(p, m, 99)
        p999 = sr_completion_percentile(p, m, 99.9)
        assert p50 <= p99 <= p999

    def test_a_search_that_never_brackets_the_percentile_is_refused(self, monkeypatch):
        # A tail stuck at 1 would widen the bracket forever.
        monkeypatch.setattr(sr_model, "sr_completion_tail", lambda *args: 1.0)
        with pytest.raises(ConfigError, match="percentile search diverged"):
            sr_completion_percentile(params(), 100, 99.9)

    def test_validation(self):
        with pytest.raises(ConfigError):
            sr_completion_percentile(params(), 100, 0.0)
        with pytest.raises(ConfigError):
            sr_completion_percentile(params(), 100, 100.0)
