"""Synthetic WAN measurement campaign (Figure 2 substrate)."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import KiB
from repro.net.wan import PayloadSummary, WanCampaign


class TestCampaign:
    def test_trial_counts_packets(self):
        campaign = WanCampaign(trials=10, seed=0)
        trial = campaign.run_trial(1 * KiB)
        assert trial.packets_sent > 0
        assert 0 <= trial.packets_dropped <= trial.packets_sent
        assert 0.0 <= trial.drop_rate <= 1.0

    def test_full_campaign_shape(self):
        campaign = WanCampaign(trials=20, seed=1)
        results = campaign.run([512, 4 * KiB])
        assert set(results) == {512, 4 * KiB}
        assert all(len(v) == 20 for v in results.values())

    def test_median_drop_rate_increases_with_payload(self):
        campaign = WanCampaign(trials=60, seed=2)
        results = campaign.run([512, 8 * KiB])
        small = campaign.summarize(results[512])
        large = campaign.summarize(results[8 * KiB])
        assert large.median > small.median

    def test_trial_variability_spans_orders(self):
        # Figure 2: orders-of-magnitude spread across trials.
        campaign = WanCampaign(trials=200, seed=3)
        summary = campaign.summarize(campaign.run([1 * KiB])[1 * KiB])
        assert summary.spread_orders >= 1.5

    def test_summarize_empty_rejected(self):
        with pytest.raises(ConfigError):
            WanCampaign.summarize([])

    def test_invalid_configuration(self):
        with pytest.raises(ConfigError):
            WanCampaign(trials=0)
        with pytest.raises(ConfigError):
            WanCampaign().run_trial(0)

    def test_reproducible_with_seed(self):
        a = WanCampaign(trials=5, seed=9).run_trial(1024)
        b = WanCampaign(trials=5, seed=9).run_trial(1024)
        assert a.drop_rate == b.drop_rate


@pytest.mark.parametrize("max_rate, spread", [(0.1, float("inf")), (0.0, 0.0)])
def test_a_trial_without_drops_makes_the_spread_unbounded(max_rate, spread):
    summary = PayloadSummary(
        payload_bytes=KiB, trials=3, min_rate=0.0, p25=0.0, median=0.0,
        p75=max_rate, max_rate=max_rate,
    )
    assert summary.spread_orders == spread
