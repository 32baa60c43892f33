"""Gilbert-Elliott chunk-drop closed form vs empirical sampling."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.models.burst import ge_chunk_drop_probability, ge_stationary
from repro.net.loss import GilbertElliottLoss

#: The chain's defaults in ``repro.models.burst``.
GE = dict(p_good=0.0, p_bad=0.5, p_gb=1e-4, p_bg=0.1)


def average_loss(**kw) -> float:
    """Marginal per-packet loss rate of the chain."""
    kw = {**GE, **kw}
    good, bad = ge_stationary(kw["p_gb"], kw["p_bg"])
    return good * kw["p_good"] + bad * kw["p_bad"]


def masking_gain(n: int, **kw) -> float:
    """i.i.d. / bursty chunk-drop rate at equal average loss: > 1 means
    bursts are masked inside chunks (Section 3.1.1)."""
    iid = 1.0 - (1.0 - average_loss(**kw)) ** n
    return iid / ge_chunk_drop_probability(n, **{**GE, **kw})


class TestStationary:
    def test_distribution_sums_to_one(self):
        g, b = ge_stationary(0.01, 0.09)
        assert g + b == pytest.approx(1.0)
        assert b == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ge_stationary(0.0, 0.5)


class TestChunkDrop:
    def test_single_packet_equals_average_rate(self):
        kw = dict(p_good=0.0, p_bad=0.5, p_gb=1e-3, p_bg=0.05)
        assert ge_chunk_drop_probability(1, **kw) == pytest.approx(
            average_loss(**kw)
        )

    def test_iid_limit(self):
        """With p_good == p_bad the chain is i.i.d. and the closed form
        must reduce to 1-(1-p)^N exactly."""
        p = 0.01
        for n in (1, 4, 16, 64):
            got = ge_chunk_drop_probability(
                n, p_good=p, p_bad=p, p_gb=0.5, p_bg=0.5
            )
            assert got == pytest.approx(1 - (1 - p) ** n, rel=1e-9)

    def test_monotone_in_chunk_size(self):
        vals = [
            ge_chunk_drop_probability(n, p_gb=1e-3, p_bg=0.05)
            for n in (1, 2, 8, 32, 128)
        ]
        assert vals == sorted(vals)

    def test_matches_empirical_sampler(self):
        """The closed form must match the actual GilbertElliottLoss."""
        kw = dict(p_good=0.0, p_bad=0.5, p_gb=2e-3, p_bg=0.05)
        rng = np.random.default_rng(0)
        model = GilbertElliottLoss(**kw)
        n_packets = 600_000
        mask = model.drop_mask(rng, np.full(n_packets, 4096))
        for n in (4, 16):
            chunks = mask[: (n_packets // n) * n].reshape(-1, n)
            empirical = chunks.any(axis=1).mean()
            analytic = ge_chunk_drop_probability(n, **kw)
            assert analytic == pytest.approx(empirical, rel=0.08)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ge_chunk_drop_probability(0)
        with pytest.raises(ConfigError):
            ge_chunk_drop_probability(4, p_bad=1.5)


class TestMaskingGain:
    def test_gain_exceeds_one_for_bursty_loss(self):
        gain = masking_gain(64, p_gb=2e-4, p_bg=0.05)
        assert gain > 2.0

    def test_a_lossless_chain_masks_nothing(self):
        assert ge_chunk_drop_probability(64, p_good=0.0, p_bad=0.0) == 0.0

    def test_gain_is_one_for_iid(self):
        gain = masking_gain(64, p_good=0.01, p_bad=0.01, p_gb=0.5, p_bg=0.5)
        assert gain == pytest.approx(1.0, rel=1e-9)

    def test_gain_grows_with_chunk_size(self):
        gains = [
            masking_gain(n, p_gb=2e-4, p_bg=0.05)
            for n in (1, 4, 16, 64)
        ]
        assert gains == sorted(gains)
        assert gains[0] == pytest.approx(1.0, rel=1e-9)
