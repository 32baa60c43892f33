"""Appendix B decode probabilities, validated against brute-force MC."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.ec import get_codec
from repro.models.decode_prob import (
    p_decode_mds,
    p_decode_rs2d,
    p_decode_xor,
    p_fallback,
)


class TestMds:
    def test_boundary_values(self):
        assert p_decode_mds(0.0, 32, 8) == 1.0
        assert p_decode_mds(1.0, 32, 8) == 0.0

    def test_formula_small_case(self):
        # k=1, m=1: success iff <= 1 of 2 chunks dropped = 1 - p^2.
        p = 0.3
        assert p_decode_mds(p, 1, 1) == pytest.approx(1 - p**2)

    def test_monotone_in_parity(self):
        p = 1e-2
        probs = [p_decode_mds(p, 32, m) for m in (2, 4, 8, 16)]
        assert probs == sorted(probs)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(0)
        k, m, p = 8, 4, 0.15
        trials = 40_000
        drops = rng.random((trials, k + m)) < p
        success = (drops.sum(axis=1) <= m).mean()
        assert p_decode_mds(p, k, m) == pytest.approx(success, abs=0.01)


@pytest.mark.parametrize("p_decode", [p_decode_mds, p_decode_xor, p_decode_rs2d])
@pytest.mark.parametrize(
    "p_drop, k, m, message",
    [
        (1.5, 4, 2, r"drop probability must be in \[0, 1\], got 1.5"),
        (-0.1, 4, 2, r"drop probability must be in \[0, 1\], got -0.1"),
        (0.1, 0, 2, "need k, m > 0, got k=0, m=2"),
        (0.1, 4, 0, "need k, m > 0, got k=4, m=0"),
    ],
)
def test_decode_probability_refusals(p_decode, p_drop, k, m, message):
    with pytest.raises(ConfigError, match=message):
        p_decode(p_drop, k, m)


class TestRs2d:
    def test_boundary_values(self):
        assert p_decode_rs2d(0.0, 16, 8) == 1.0
        assert p_decode_rs2d(1.0, 16, 8) == 0.0

    def test_peeling_sits_between_mds_and_xor_at_the_same_overhead(self):
        for p in (0.05, 0.1, 0.2):
            assert p_decode_xor(p, 16, 8) < p_decode_rs2d(p, 16, 8) < p_decode_mds(p, 16, 8)


class TestXor:
    def test_boundary_values(self):
        assert p_decode_xor(0.0, 32, 8) == 1.0
        assert p_decode_xor(1.0, 32, 8) == 0.0

    def test_a_group_success_that_underflows_reads_zero(self):
        # q**255 and 255 p q**254 both underflow at p = 1 - 1e-6.
        assert p_decode_xor(1 - 1e-6, 254, 1) == 0.0

    def test_requires_m_divides_k(self):
        with pytest.raises(ConfigError):
            p_decode_xor(0.1, 7, 3)

    def test_weaker_than_mds(self):
        # Same (k, m): XOR's per-group constraint loses to any-m MDS.
        for p in (1e-3, 1e-2, 0.1):
            assert p_decode_xor(p, 32, 8) <= p_decode_mds(p, 32, 8)

    def test_monte_carlo_agreement_via_codec(self):
        """The closed form matches the actual XOR codec's recoverable()."""
        rng = np.random.default_rng(1)
        k, m, p = 8, 4, 0.12
        code = get_codec("xor", k, m)
        trials = 20_000
        present = rng.random((trials, k + m)) >= p
        success = np.mean([code.recoverable(row) for row in present])
        assert p_decode_xor(p, k, m) == pytest.approx(success, abs=0.015)

    def test_mds_closed_form_matches_codec_recoverable(self):
        rng = np.random.default_rng(2)
        k, m, p = 6, 3, 0.2
        code = get_codec("mds", k, m)
        trials = 20_000
        present = rng.random((trials, k + m)) >= p
        success = np.mean([code.recoverable(row) for row in present])
        assert p_decode_mds(p, k, m) == pytest.approx(success, abs=0.015)


class TestFallback:
    def test_fallback_probability(self):
        assert p_fallback(1.0, 10) == 0.0
        assert p_fallback(0.0, 10) == 1.0
        assert p_fallback(0.9, 1) == pytest.approx(0.1)
        # L independent submessages compound.
        assert p_fallback(0.99, 100) == pytest.approx(1 - 0.99**100)

    def test_validation(self):
        with pytest.raises(ConfigError):
            p_fallback(1.5, 10)
        with pytest.raises(ConfigError):
            p_fallback(0.5, 0)
        with pytest.raises(ConfigError):
            p_fallback(-0.1, 10)
        with pytest.raises(ConfigError, match="need >= 1 submessage, got 0"):
            p_fallback(0.5, 0)
