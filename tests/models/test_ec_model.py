"""EC completion-time model (Section 4.2.3)."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.units import KiB, MiB
from repro.models.ec_model import ec_expected_completion, ec_sample_completion
from repro.models.params import ModelParams
from repro.models.sr_model import sr_expected_completion


def params(**kw):
    defaults = dict(
        bandwidth_bps=400e9, rtt=25e-3, chunk_bytes=64 * KiB,
        drop_probability=1e-4,
    )
    defaults.update(kw)
    return ModelParams(**defaults)


class TestExpected:
    def test_lossless_is_base_plus_ack(self):
        p = params(drop_probability=0.0)
        m_chunks = 2048
        expected = (m_chunks + 2048 // 4) * p.t_inj + p.rtt  # R = 32/8 = 4
        assert ec_expected_completion(p, m_chunks) == pytest.approx(expected)

    def test_parity_ratio_controls_overhead(self):
        p = params(drop_probability=0.0)
        t_heavy = ec_expected_completion(p, 1024, k=8, m=8)    # R=1: 100%
        t_light = ec_expected_completion(p, 1024, k=32, m=2)   # R=16: 6%
        assert t_heavy > t_light

    def test_ec_beats_sr_in_critical_region(self):
        """Figure 9's red region: mid-size messages, mid drop rates."""
        p = params(drop_probability=1e-3)
        m_chunks = p.chunks_in(128 * MiB)
        assert ec_expected_completion(p, m_chunks) < sr_expected_completion(
            p, m_chunks
        )

    def test_sr_beats_ec_for_large_low_drop(self):
        """Figure 3a tail: injection-dominated messages pay for parity."""
        p = params(drop_probability=1e-8)
        m_chunks = p.chunks_in(64 * 1024 * MiB)  # 64 GiB
        assert sr_expected_completion(p, m_chunks) < ec_expected_completion(
            p, m_chunks
        )

    def test_xor_weaker_than_mds_at_high_drop(self):
        p = params(drop_probability=5e-3)
        m_chunks = 2048
        t_mds = ec_expected_completion(p, m_chunks, codec="mds")
        t_xor = ec_expected_completion(p, m_chunks, codec="xor")
        assert t_xor > t_mds

    def test_rs2d_sits_between_mds_and_xor_at_the_same_overhead(self):
        p = params(drop_probability=0.1)
        t = {
            codec: ec_expected_completion(p, 2048, k=16, m=8, codec=codec)
            for codec in ("mds", "rs2d", "xor")
        }
        assert t["mds"] < t["rs2d"] < t["xor"]

    def test_unknown_codec_rejected(self):
        with pytest.raises(ConfigError):
            ec_expected_completion(params(), 100, codec="fountain")

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            ec_expected_completion(params(), 0)
        with pytest.raises(ConfigError):
            ec_expected_completion(params(), 100, k=0)


class TestSamples:
    def test_mean_matches_expectation_when_no_fallback(self):
        p = params(drop_probability=1e-5)
        m_chunks = 2048
        samples = ec_sample_completion(
            p, m_chunks, 3000, rng=np.random.default_rng(0)
        )
        assert samples.mean() == pytest.approx(
            ec_expected_completion(p, m_chunks), rel=0.05
        )

    def test_fallback_fattens_tail(self):
        p = params(drop_probability=3e-3)
        m_chunks = 2048
        samples = ec_sample_completion(
            p, m_chunks, 4000, k=32, m=2, rng=np.random.default_rng(1)
        )
        base = samples.min()
        assert np.percentile(samples, 99.9) > base * 1.5

    def test_zero_drop_samples_constant(self):
        p = params(drop_probability=0.0)
        samples = ec_sample_completion(p, 512, 100)
        assert np.unique(samples).size == 1

    def test_reproducible(self):
        p = params()
        a = ec_sample_completion(p, 256, 50, rng=np.random.default_rng(2))
        b = ec_sample_completion(p, 256, 50, rng=np.random.default_rng(2))
        assert np.array_equal(a, b)

    def test_invalid_samples(self):
        with pytest.raises(ConfigError):
            ec_sample_completion(params(), 100, 0)
