"""Synthetic inter-datacenter drop-rate measurement campaign (Figure 2).

The paper measured UDP drop rates between the Lugano and Lausanne CSCS sites
(350 km, 100 Gbit/s, 16 flows, 200 x 15 s trials per payload size) and found

* up to three orders of magnitude variation across trials at fixed payload,
* drop rates increasing with payload size (1 KiB: 1e-4..1e-2; 8 KiB:
  1e-3..>1e-1), implicating ISP-side switch-buffer congestion.

We do not have that link; :class:`WanCampaign` regenerates the measurement
protocol against the :class:`~repro.net.loss.CongestedWanLoss` model so that
downstream components face the same empirical phenomenon: a wildly varying,
payload-correlated drop process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigError
from repro.common.units import Gbit
from repro.net.loss import CongestedWanLoss


@dataclass(frozen=True)
class TrialResult:
    """One iperf-style trial: payload size, congestion level, observed rate."""

    payload_bytes: int
    congestion: float
    packets_sent: int
    packets_dropped: int

    @property
    def drop_rate(self) -> float:
        return self.packets_dropped / self.packets_sent if self.packets_sent else 0.0


@dataclass(frozen=True)
class PayloadSummary:
    """Distribution of per-trial drop rates for one payload size."""

    payload_bytes: int
    trials: int
    min_rate: float
    p25: float
    median: float
    p75: float
    max_rate: float

    @property
    def spread_orders(self) -> float:
        """Orders of magnitude between min and max non-zero trial rates."""
        if self.min_rate <= 0:
            return float("inf") if self.max_rate > 0 else 0.0
        return float(np.log10(self.max_rate / self.min_rate))


class WanCampaign:
    """Replays the Figure 2 measurement campaign against the WAN loss model:
    16 flows sharing a 100 Gbit/s link, 15-second trials."""

    bandwidth_bps = 100 * Gbit
    trial_seconds = 15.0

    def __init__(self, *, trials: int = 200, seed: int = 0):
        if trials <= 0:
            raise ConfigError("trials must be positive")
        self.loss = CongestedWanLoss()
        self.trials = int(trials)
        self.rng = np.random.default_rng(seed)

    def packets_per_trial(self, payload_bytes: int) -> int:
        """Packets all flows emit in one trial at the aggregate line rate.

        Capped so that huge campaigns stay cheap: the drop-rate estimator
        converges long before the true 15-second packet count.
        """
        wire = self.bandwidth_bps / 8.0 * self.trial_seconds
        return int(min(wire / payload_bytes, 2_000_000))

    def run_trial(self, payload_bytes: int) -> TrialResult:
        """One trial: resample congestion, blast packets, count drops."""
        if payload_bytes <= 0:
            raise ConfigError(f"payload must be > 0, got {payload_bytes}")
        congestion = self.loss.new_trial(self.rng)
        n = self.packets_per_trial(payload_bytes)
        # The per-trial drop count is Binomial(n, p); sampling it directly is
        # equivalent to per-packet coin flips and keeps the campaign fast.
        p = self.loss.drop_probability(payload_bytes)
        dropped = int(self.rng.binomial(n, p))
        return TrialResult(
            payload_bytes=payload_bytes,
            congestion=congestion,
            packets_sent=n,
            packets_dropped=dropped,
        )

    def run(self, payload_sizes: list[int]) -> dict[int, list[TrialResult]]:
        """Full campaign: ``trials`` trials for every payload size."""
        results: dict[int, list[TrialResult]] = {}
        for size in payload_sizes:
            results[size] = [self.run_trial(size) for _ in range(self.trials)]
        return results

    @staticmethod
    def summarize(trials: list[TrialResult]) -> PayloadSummary:
        """Percentile summary of one payload's trial drop rates."""
        if not trials:
            raise ConfigError("cannot summarize an empty trial list")
        rates = np.array([t.drop_rate for t in trials])
        return PayloadSummary(
            payload_bytes=trials[0].payload_bytes,
            trials=len(trials),
            min_rate=float(rates.min()),
            p25=float(np.percentile(rates, 25)),
            median=float(np.median(rates)),
            p75=float(np.percentile(rates, 75)),
            max_rate=float(rates.max()),
        )
