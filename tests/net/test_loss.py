"""Loss-model behaviour."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.net.loss import (
    BernoulliLoss,
    CongestedWanLoss,
    GilbertElliottLoss,
    LossModel,
    NoLoss,
)


class _EveryOther(LossModel):
    """A model without a vectorised override: drops each second draw < 0.5."""

    def drops(self, rng, size_bytes):
        return bool(rng.random() < 0.5) and size_bytes > 1024


def test_the_default_batch_decision_replays_the_per_packet_ones():
    sizes = np.array([4096, 512, 4096, 4096, 100, 8192] * 50)
    mask = _EveryOther().drop_mask(np.random.default_rng(3), sizes)
    rng = np.random.default_rng(3)
    assert mask.dtype == bool
    assert mask.tolist() == [_EveryOther().drops(rng, int(s)) for s in sizes]
    assert 0 < mask.sum() < len(sizes) and not mask[sizes <= 1024].any()


class TestNoLoss:
    def test_never_drops(self):
        rng = np.random.default_rng(0)
        model = NoLoss()
        assert not any(model.drops(rng, 4096) for _ in range(100))
        assert not model.drop_mask(rng, np.full(50, 4096)).any()


class TestBernoulli:
    def test_zero_probability(self):
        rng = np.random.default_rng(0)
        model = BernoulliLoss(0.0)
        assert not model.drop_mask(rng, np.full(100, 1024)).any()

    def test_empirical_rate(self):
        rng = np.random.default_rng(1)
        model = BernoulliLoss(0.1)
        mask = model.drop_mask(rng, np.full(20000, 1024))
        assert mask.mean() == pytest.approx(0.1, abs=0.01)

    def test_scalar_path_matches_rate(self):
        rng = np.random.default_rng(2)
        model = BernoulliLoss(0.2)
        rate = sum(model.drops(rng, 64) for _ in range(5000)) / 5000
        assert rate == pytest.approx(0.2, abs=0.03)

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            BernoulliLoss(1.0)
        with pytest.raises(ConfigError):
            BernoulliLoss(-0.1)


class TestGilbertElliott:
    def test_average_rate_formula(self):
        model = GilbertElliottLoss(p_good=0.0, p_bad=0.5, p_gb=0.01, p_bg=0.09)
        assert model.average_loss_rate == pytest.approx(0.05)

    def test_empirical_matches_stationary(self):
        rng = np.random.default_rng(3)
        model = GilbertElliottLoss(p_good=0.0, p_bad=0.5, p_gb=0.02, p_bg=0.1)
        n = 200_000
        drops = sum(model.drops(rng, 1024) for _ in range(n)) / n
        assert drops == pytest.approx(model.average_loss_rate, rel=0.15)

    def test_burstiness(self):
        # Drops should cluster: consecutive-drop probability far exceeds
        # the marginal rate.
        rng = np.random.default_rng(4)
        model = GilbertElliottLoss(p_good=0.0, p_bad=0.7, p_gb=1e-3, p_bg=0.05)
        seq = [model.drops(rng, 1024) for _ in range(100_000)]
        marginal = sum(seq) / len(seq)
        pairs = sum(1 for a, b in zip(seq, seq[1:]) if a and b)
        cond = pairs / max(1, sum(seq[:-1]))
        assert cond > 5 * marginal

    def test_mask_matches_stationary_rate(self):
        rng = np.random.default_rng(9)
        model = GilbertElliottLoss(p_good=0.0, p_bad=0.5, p_gb=0.02, p_bg=0.1)
        mask = model.drop_mask(rng, np.full(200_000, 1024))
        assert mask.mean() == pytest.approx(model.average_loss_rate, rel=0.15)

    def test_mask_is_bursty(self):
        rng = np.random.default_rng(10)
        model = GilbertElliottLoss(p_good=0.0, p_bad=0.7, p_gb=1e-3, p_bg=0.05)
        mask = model.drop_mask(rng, np.full(100_000, 1024))
        marginal = mask.mean()
        pairs = (mask[:-1] & mask[1:]).sum()
        cond = pairs / max(1, mask[:-1].sum())
        assert cond > 5 * marginal

    def test_mask_carries_state_across_calls(self):
        # Force the chain into the bad state, then check a subsequent
        # drop_mask call starts from it (p_bg tiny => it stays bad).
        rng = np.random.default_rng(11)
        model = GilbertElliottLoss(p_good=0.0, p_bad=1.0, p_gb=1.0, p_bg=1e-9)
        first = model.drop_mask(rng, np.full(10, 1024))
        assert first[1:].all()  # bad from packet 2 onward, drops always
        assert model._bad
        assert model.drop_mask(rng, np.full(10, 1024)).all()

    def test_mask_empty_input(self):
        rng = np.random.default_rng(12)
        model = GilbertElliottLoss()
        mask = model.drop_mask(rng, np.zeros(0, dtype=int))
        assert mask.shape == (0,) and mask.dtype == bool

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            GilbertElliottLoss(p_bad=1.5)
        with pytest.raises(ConfigError):
            GilbertElliottLoss(p_gb=0.0)


class TestCongestedWan:
    def test_drop_probability_grows_with_size(self):
        model = CongestedWanLoss()
        rng = np.random.default_rng(5)
        model.new_trial(rng)
        assert model.drop_probability(8192) > model.drop_probability(1024)

    def test_probability_capped(self):
        model = CongestedWanLoss(c_min=1e-2, c_max=1e-2, p_max=0.3)
        rng = np.random.default_rng(6)
        model.new_trial(rng)
        assert model.drop_probability(10**9) == 0.3

    def test_trial_resampling_varies(self):
        model = CongestedWanLoss()
        rng = np.random.default_rng(7)
        levels = {model.new_trial(rng) for _ in range(50)}
        assert len(levels) == 50
        assert min(levels) >= model.c_min
        assert max(levels) <= model.c_max

    def test_mask_matches_probability(self):
        model = CongestedWanLoss(c_min=5e-3, c_max=5e-3)
        rng = np.random.default_rng(8)
        model.new_trial(rng)
        sizes = np.full(50_000, 1024)
        rate = model.drop_mask(rng, sizes).mean()
        assert rate == pytest.approx(model.drop_probability(1024), rel=0.15)

    def test_per_packet_drops_match_probability(self):
        model = CongestedWanLoss(c_min=5e-2, c_max=5e-2)
        rng = np.random.default_rng(9)
        model.new_trial(rng)
        rate = np.mean([model.drops(rng, 8192) for _ in range(20_000)])
        assert rate == pytest.approx(model.drop_probability(8192), rel=0.1)
        assert model.drop_probability(8192) > 0.4

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            CongestedWanLoss(c_min=0.1, c_max=0.01)
        with pytest.raises(ConfigError):
            CongestedWanLoss(p_max=0.0)
