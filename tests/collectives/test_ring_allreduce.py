"""Ring Allreduce recurrence simulation and Appendix C bound."""

import numpy as np
import pytest

from repro.collectives.bounds import allreduce_lower_bound
from repro.collectives.ring_allreduce import (
    RingAllreduce,
    ec_stage_sampler,
    sr_stage_sampler,
)
from repro.common.errors import ConfigError
from repro.common.units import KiB, MiB
from repro.models.params import ModelParams


def ideal_stage_sampler(p: ModelParams):
    """Every stage takes its lossless time (the LogGP-style baseline)."""
    return lambda message_bytes, n, rng: np.full(n, p.ideal_completion(message_bytes))


def params(drop=1e-4):
    return ModelParams(
        bandwidth_bps=400e9, rtt=25e-3, chunk_bytes=64 * KiB,
        drop_probability=drop,
    )


class TestGeometry:
    def test_rounds_and_segments(self):
        ring = RingAllreduce(n_datacenters=4, buffer_bytes=128 * MiB)
        assert ring.rounds == 6
        assert ring.segment_bytes == 32 * MiB

    def test_validation(self):
        with pytest.raises(ConfigError):
            RingAllreduce(n_datacenters=1, buffer_bytes=1)
        with pytest.raises(ConfigError):
            RingAllreduce(n_datacenters=4, buffer_bytes=0)
        with pytest.raises(ConfigError):
            RingAllreduce(n_datacenters=2, buffer_bytes=1).sample(
                ideal_stage_sampler(params()), 0
            )


class TestIdealBaseline:
    def test_lossless_time_is_rounds_times_stage(self):
        p = params(drop=0.0)
        ring = RingAllreduce(n_datacenters=4, buffer_bytes=128 * MiB)
        samples = ring.sample(ideal_stage_sampler(p), 10)
        stage = p.ideal_completion(ring.segment_bytes)
        assert np.allclose(samples, ring.rounds * stage)

    def test_matches_appendix_c_bound_exactly_when_deterministic(self):
        p = params(drop=0.0)
        ring = RingAllreduce(n_datacenters=8, buffer_bytes=64 * MiB)
        stage = p.ideal_completion(ring.segment_bytes)
        bound = allreduce_lower_bound(8, stage)
        samples = ring.sample(ideal_stage_sampler(p), 5)
        assert np.allclose(samples, bound)


class TestLossyProtocols:
    def test_samples_respect_lower_bound(self):
        """E[T] >= (2N-2)(C + mu_X): Appendix C, with mu_X >= 0."""
        p = params(drop=1e-3)
        ring = RingAllreduce(n_datacenters=4, buffer_bytes=128 * MiB)
        rng = np.random.default_rng(0)
        samples = ring.sample(sr_stage_sampler(p), 400, rng=rng)
        stage_ideal = p.ideal_completion(ring.segment_bytes)
        bound = allreduce_lower_bound(4, stage_ideal)
        assert samples.mean() >= bound

    def test_ec_beats_sr_at_moderate_drop(self):
        """Figure 13: EC's per-stage advantage compounds over the ring."""
        p = params(drop=1e-3)
        ring = RingAllreduce(n_datacenters=4, buffer_bytes=128 * MiB)
        rng = np.random.default_rng(1)
        sr = ring.sample(sr_stage_sampler(p), 600, rng=rng)
        ec = ring.sample(ec_stage_sampler(p), 600, rng=rng)
        assert np.percentile(sr, 99) > np.percentile(ec, 99)
        assert sr.mean() > ec.mean()

    def test_speedup_grows_with_drop_rate(self):
        ring = RingAllreduce(n_datacenters=4, buffer_bytes=128 * MiB)
        rng = np.random.default_rng(2)
        speedups = []
        for drop in (1e-5, 1e-3):
            p = params(drop=drop)
            sr = ring.sample(sr_stage_sampler(p), 800, rng=rng)
            ec = ring.sample(ec_stage_sampler(p), 800, rng=rng)
            speedups.append(
                np.percentile(sr, 99.9) / np.percentile(ec, 99.9)
            )
        assert speedups[1] > speedups[0]

    def test_per_stage_cost_amplifies_with_ring_size(self):
        """At fixed segment size, longer rings pay more than proportionally:
        each round takes the max over N datacenters' stage times."""
        p = params(drop=1e-3)
        rng = np.random.default_rng(3)
        per_stage_normalized = []
        segment = 32 * MiB
        for n in (2, 8):
            # Scale the buffer so every stage moves the same segment.
            ring = RingAllreduce(n_datacenters=n, buffer_bytes=segment * n)
            samples = ring.sample(sr_stage_sampler(p), 500, rng=rng)
            stage_ideal = p.ideal_completion(ring.segment_bytes)
            per_stage_normalized.append(
                samples.mean() / (ring.rounds * stage_ideal)
            )
        assert per_stage_normalized[1] > per_stage_normalized[0]


class TestBound:
    def test_formula(self):
        assert allreduce_lower_bound(4, 2.0, 0.5) == pytest.approx(15.0)
        assert allreduce_lower_bound(2, 1.0) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            allreduce_lower_bound(1, 1.0)
        with pytest.raises(ConfigError):
            allreduce_lower_bound(4, -1.0)
