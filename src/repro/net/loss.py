"""Packet-drop processes for the long-haul channel.

Three models cover the paper's operating regimes:

* :class:`BernoulliLoss` -- i.i.d. drops, the assumption of the Section 4.2
  completion-time model.
* :class:`GilbertElliottLoss` -- two-state bursty loss; used by ablation
  benches to study how burst drops interact with bitmap chunk size (the
  paper notes a 16-packet chunk "masks drop bursts within the same chunk").
* :class:`CongestedWanLoss` -- the doubly-stochastic model behind the
  synthetic Figure 2 campaign: each trial samples a congestion level from a
  heavy-tailed distribution, and the per-packet drop probability grows with
  payload size (larger packets are likelier to overflow a congested switch
  buffer), reproducing both the 3-orders-of-magnitude trial spread and the
  positive size correlation measured between Lugano and Lausanne.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.common.errors import ConfigError


class LossModel(abc.ABC):
    """Decides, per packet, whether the channel drops it."""

    @abc.abstractmethod
    def drops(self, rng: np.random.Generator, size_bytes: int) -> bool:
        """Return True if a packet of ``size_bytes`` is dropped."""

    def drop_mask(self, rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
        """Vectorized drop decision for an array of packet sizes."""
        return np.array([self.drops(rng, int(s)) for s in sizes], dtype=bool)


class NoLoss(LossModel):
    """A lossless channel (the intra-datacenter assumption of LogGP)."""

    def drops(self, rng: np.random.Generator, size_bytes: int) -> bool:
        return False

    def drop_mask(self, rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
        return np.zeros(len(sizes), dtype=bool)


class BernoulliLoss(LossModel):
    """Independent drops with fixed probability ``p``."""

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ConfigError(f"drop probability must be in [0, 1), got {p}")
        self.p = float(p)

    def drops(self, rng: np.random.Generator, size_bytes: int) -> bool:
        return bool(self.p and rng.random() < self.p)

    def drop_mask(self, rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
        if self.p == 0.0:
            return np.zeros(len(sizes), dtype=bool)
        return rng.random(len(sizes)) < self.p


class GilbertElliottLoss(LossModel):
    """Two-state Markov (Gilbert-Elliott) bursty loss.

    ``good``/``bad`` states with per-state drop probabilities and transition
    probabilities per packet.  Average loss rate is
    ``pi_bad * p_bad + pi_good * p_good`` with the stationary distribution
    ``pi_bad = p_gb / (p_gb + p_bg)``.
    """

    def __init__(
        self,
        p_good: float = 0.0,
        p_bad: float = 0.5,
        p_gb: float = 1e-4,
        p_bg: float = 0.1,
    ):
        for name, v in (("p_good", p_good), ("p_bad", p_bad)):
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        for name, v in (("p_gb", p_gb), ("p_bg", p_bg)):
            if not 0.0 < v <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {v}")
        self.p_good, self.p_bad = float(p_good), float(p_bad)
        self.p_gb, self.p_bg = float(p_gb), float(p_bg)
        self._bad = False

    @property
    def average_loss_rate(self) -> float:
        pi_bad = self.p_gb / (self.p_gb + self.p_bg)
        return pi_bad * self.p_bad + (1.0 - pi_bad) * self.p_good

    def drops(self, rng: np.random.Generator, size_bytes: int) -> bool:
        if self._bad:
            if rng.random() < self.p_bg:
                self._bad = False
        else:
            if rng.random() < self.p_gb:
                self._bad = True
        p = self.p_bad if self._bad else self.p_good
        return bool(p and rng.random() < p)

    def drop_mask(self, rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
        """Batched drop decisions with one RNG draw.

        The Markov chain is inherently sequential, so the state update stays
        a Python loop -- but all ``2n`` uniforms (transition + drop per
        packet) come from a single ``rng.random((n, 2))`` call, which is
        where the per-packet path spends its time.
        """
        n = len(sizes)
        out = np.zeros(n, dtype=bool)
        if n == 0:
            return out
        draws = rng.random((n, 2))
        bad = self._bad
        p_good, p_bad = self.p_good, self.p_bad
        p_gb, p_bg = self.p_gb, self.p_bg
        for i in range(n):
            if bad:
                if draws[i, 0] < p_bg:
                    bad = False
            elif draws[i, 0] < p_gb:
                bad = True
            p = p_bad if bad else p_good
            if p and draws[i, 1] < p:
                out[i] = True
        self._bad = bad
        return out


class CongestedWanLoss(LossModel):
    """Congestion-modulated WAN loss (synthetic Figure 2 substrate).

    Model: an ISP-side bottleneck switch has a congestion level ``c`` that is
    (log-uniformly) resampled per trial via :meth:`new_trial`.  A packet of
    size ``s`` is dropped with probability::

        p(s, c) = clip(c * (s / ref_bytes) ** size_exponent, 0, p_max)

    The multiplicative size term captures that an 8 KiB datagram needs 2x the
    contiguous buffer of a 4 KiB one in a congested queue; the measured
    campaign saw 1 KiB drop rates of 1e-4..1e-2 and 8 KiB rates of 1e-3..>1e-1,
    i.e. roughly an order of magnitude per ~3x in size -- matched by
    ``size_exponent`` 1.1.
    """

    ref_bytes = 1024
    size_exponent = 1.1

    def __init__(
        self, c_min: float = 1e-4, c_max: float = 1e-2, p_max: float = 0.5
    ):
        if not 0 < c_min <= c_max < 1:
            raise ConfigError(f"need 0 < c_min <= c_max < 1, got {c_min}, {c_max}")
        if not 0 < p_max <= 1:
            raise ConfigError(f"p_max must be in (0, 1], got {p_max}")
        self.c_min, self.c_max = float(c_min), float(c_max)
        self.p_max = float(p_max)
        self._c = c_min

    def new_trial(self, rng: np.random.Generator) -> float:
        """Resample the congestion level (one per 15-second iperf trial)."""
        lo, hi = np.log(self.c_min), np.log(self.c_max)
        self._c = float(np.exp(rng.uniform(lo, hi)))
        return self._c

    def drop_probability(self, size_bytes: int) -> float:
        scale = (size_bytes / self.ref_bytes) ** self.size_exponent
        return float(min(self._c * scale, self.p_max))

    def drops(self, rng: np.random.Generator, size_bytes: int) -> bool:
        return bool(rng.random() < self.drop_probability(size_bytes))

    def drop_mask(self, rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
        probs = np.minimum(
            self._c * (np.asarray(sizes) / self.ref_bytes) ** self.size_exponent,
            self.p_max,
        )
        return rng.random(len(sizes)) < probs
