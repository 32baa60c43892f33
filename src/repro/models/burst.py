"""Chunk-drop probability under bursty (Gilbert-Elliott) packet loss.

The completion-time models assume i.i.d. chunk drops; Figure 15's
conversion ``P_chunk = 1-(1-p)^N`` inherits that assumption.  Real WAN loss
is bursty, and the paper notes that bitmap chunk size can be chosen to
"mask drop bursts within the same chunk" (Section 3.1.1).  This module
quantifies that masking analytically.

For a two-state Gilbert-Elliott chain (good/bad states with per-packet
drop probabilities ``p_good``/``p_bad`` and transition probabilities
``p_gb``/``p_bg``), the probability that *all N packets of a chunk
survive* is a product of 2x2 non-negative matrices::

    P(survive N) = pi^T (T D)^N 1

where ``T`` is the state-transition matrix applied before each packet,
``D = diag(1 - p_good, 1 - p_bad)`` keeps only no-drop outcomes, and
``pi`` is the stationary distribution.  The chunk drop probability is its
complement; under bursts it grows *sublinearly* in N compared with the
i.i.d. formula at equal average loss -- the masking gain the ablation bench
measures empirically.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError


def ge_stationary(p_gb: float, p_bg: float) -> tuple[float, float]:
    """Stationary (pi_good, pi_bad) of the two-state chain."""
    if not 0 < p_gb <= 1 or not 0 < p_bg <= 1:
        raise ConfigError("transition probabilities must be in (0, 1]")
    pi_bad = p_gb / (p_gb + p_bg)
    return 1.0 - pi_bad, pi_bad


def ge_chunk_drop_probability(
    packets_per_chunk: int,
    *,
    p_good: float = 0.0,
    p_bad: float = 0.5,
    p_gb: float = 1e-4,
    p_bg: float = 0.1,
) -> float:
    """P(chunk of N packets loses >= 1 packet) under Gilbert-Elliott loss.

    Matches the sampling behaviour of
    :class:`repro.net.loss.GilbertElliottLoss`: the state transitions
    before each packet's drop decision, starting from the stationary
    distribution.
    """
    if packets_per_chunk <= 0:
        raise ConfigError(
            f"need >= 1 packet per chunk, got {packets_per_chunk}"
        )
    for name, v in (("p_good", p_good), ("p_bad", p_bad)):
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"{name} must be in [0, 1], got {v}")
    pi = np.array(ge_stationary(p_gb, p_bg))
    transition = np.array(
        [[1.0 - p_gb, p_gb], [p_bg, 1.0 - p_bg]]
    )
    survive = np.diag([1.0 - p_good, 1.0 - p_bad])
    step = transition @ survive
    weights = pi @ np.linalg.matrix_power(step, packets_per_chunk)
    # Rounding in the matrix power can leave the survival mass a few ulps
    # above 1 (a lossless chain gave -1.78e-15): a probability is clamped.
    return min(1.0, max(0.0, float(1.0 - weights.sum())))
