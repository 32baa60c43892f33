"""Selective Repeat completion-time model (Section 4.2.2, Appendix A).

Chunk *i* (1..M) completes at ``X_i = t_start(i) + O * (Y_i - 1)`` where
``t_start(i) = i * T_INJ``, ``O = RTO + T_INJ`` and ``Y_i ~ Geom(1 - p)`` is
the number of transmissions.  The message completes at
``T_SR(M) = max_i X_i + RTT``.

Two evaluators are provided, mirroring the paper's methodology:

* :func:`sr_expected_completion` -- the Appendix A analytical expectation
  via the tail-sum formula, evaluated by exact piecewise integration of
  ``P(max_i X_i >= q)`` (chunks are *grouped by retransmission count* so
  the evaluation stays O(grid x n_cut) even for multi-million-chunk
  messages).
* :func:`sr_sample_completion` -- a vectorized Monte-Carlo sampler.  Only
  dropped chunks can exceed the lossless baseline, so each sample draws the
  Binomial(M, p) set of dropped chunks and maximizes over just those --
  exact, and O(M p) per sample instead of O(M).
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import ConfigError
from repro.models.params import ModelParams

#: Truncation of the exponent sums: terms with ``p^n`` below it are dropped.
TOL = 1e-12
#: Midpoint-rule grid of :func:`sr_expected_completion`'s integral.
GRID_POINTS = 4096
#: Relative bracket width at which :func:`sr_completion_percentile` stops.
REL_TOL = 1e-4


def _validate(params: ModelParams, chunks: int) -> None:
    if chunks <= 0:
        raise ConfigError(f"message must have >= 1 chunk, got {chunks}")


def sr_expected_completion(params: ModelParams, chunks: int) -> float:
    """Analytical E[T_SR(M)] per Appendix A.

    ``E[max_i X_i]`` is computed as ``t_start(M) + integral of
    P(max X >= t_start(M) + u) du`` over ``u >= 0``.  Writing ``j = M - i``,
    chunk ``j`` contributes the factor ``1 - p^ceil((u + j T) / O)``; for a
    fixed ``u`` the exponent ``n`` is constant over contiguous ranges of
    ``j``, so the log-product reduces to a sum over n with closed-form
    counts.  Exponents with ``p^n < TOL`` are truncated; the integral is
    a ``GRID_POINTS``-point midpoint rule.
    """
    _validate(params, chunks)
    p = params.drop_probability
    t = params.t_inj
    rtt = params.rtt
    if p == 0.0:
        return chunks * t + rtt
    o = params.retransmission_overhead
    m = chunks
    # Exponent cutoff: p^n below TOL contributes < TOL * M to the product.
    n_cut = max(1, math.ceil(math.log(TOL / max(m, 1)) / math.log(p)))
    # Integration domain: P(max >= t_M + u) becomes negligible once even the
    # most-delayed chunk needs exponent > n_cut, i.e. u > n_cut * O.
    u_max = n_cut * o
    u = np.linspace(0.0, u_max, GRID_POINTS)
    du = u[1] - u[0]
    mid = u[:-1] + du / 2.0  # midpoint rule on the (piecewise-flat) integrand

    log_q = np.zeros_like(mid)
    for n in range(1, n_cut + 1):
        # Chunks j (distance from the last chunk, 0..M-1) with exponent
        # exactly n satisfy (n-1) O < u + j T <= n O.
        hi = np.floor((n * o - mid) / t)
        lo = np.floor(((n - 1) * o - mid) / t)
        count = np.clip(hi, -1, m - 1) - np.clip(lo, -1, m - 1)
        log_q += count * math.log1p(-(p**n))
    # Chunks with exponent > n_cut: their factors are ~1 (truncated).
    tail_prob = 1.0 - np.exp(log_q)
    integral = float(np.sum(tail_prob) * du)
    return m * t + integral + rtt


def sr_completion_tail(params: ModelParams, chunks: int, t: float) -> float:
    """P(T_SR(M) >= t): the analytic tail from Appendix A.

    ``P(max_i X_i >= q) = 1 - prod_i [1 - p^ceil((q - t_start(i)) / O)]``
    with ``q = t - RTT``; chunks are grouped by exponent exactly as in
    :func:`sr_expected_completion`.
    """
    _validate(params, chunks)
    p = params.drop_probability
    t_inj = params.t_inj
    q = t - params.rtt
    u = q - chunks * t_inj
    if u <= 1e-12 * max(abs(q), 1e-30):
        return 1.0  # cannot finish before the last chunk is injected
    if p == 0.0:
        return 0.0
    o = params.retransmission_overhead
    n_cut = max(1, math.ceil(math.log(TOL / max(chunks, 1)) / math.log(p)))
    log_ok = 0.0
    for n in range(1, n_cut + 1):
        hi = min(math.floor((n * o - u) / t_inj), chunks - 1)
        lo = max(math.floor(((n - 1) * o - u) / t_inj), -1)
        count = max(0, hi - max(lo, -1))
        if hi < -1:
            count = 0
        log_ok += count * math.log1p(-(p**n))
    return 1.0 - math.exp(log_ok)


def sr_completion_percentile(
    params: ModelParams, chunks: int, percentile: float
) -> float:
    """Analytic percentile of T_SR(M) by bisection on the tail function,
    to ``REL_TOL`` of the result.

    ``percentile`` is in (0, 100), e.g. 99.9 for the paper's tail metric.
    """
    _validate(params, chunks)
    if not 0.0 < percentile < 100.0:
        raise ConfigError(f"percentile must be in (0, 100), got {percentile}")
    target = 1.0 - percentile / 100.0
    lo = chunks * params.t_inj + params.rtt
    if params.drop_probability == 0.0 or sr_completion_tail(
        params, chunks, lo * (1 + 1e-12)
    ) <= target:
        return lo
    hi = lo + params.retransmission_overhead
    while sr_completion_tail(params, chunks, hi) > target:
        hi += params.retransmission_overhead
        if hi > lo + 1e4 * params.retransmission_overhead:
            raise ConfigError("percentile search diverged")
    while (hi - lo) > REL_TOL * hi:
        mid = (lo + hi) / 2.0
        if sr_completion_tail(params, chunks, mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def sr_sample_completion(
    params: ModelParams,
    chunks: int,
    n_samples: int = 1000,
    *,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Monte-Carlo samples of T_SR(M) (vectorized over dropped chunks).

    Exactness: a chunk with zero drops completes at ``i T <= M T``, so the
    maximum over non-dropped chunks is always ``M T``.  Dropped chunks are
    Binomial(M, p) many; conditional on at least one failure, the failure
    count is itself Geometric(1 - p) starting at 1, so each dropped chunk
    contributes ``i T + O * Geom(1-p)``.
    """
    _validate(params, chunks)
    if n_samples <= 0:
        raise ConfigError(f"need >= 1 sample, got {n_samples}")
    rng = rng if rng is not None else np.random.default_rng()
    p = params.drop_probability
    t = params.t_inj
    o = params.retransmission_overhead
    base = chunks * t
    out = np.full(n_samples, base)
    if p > 0.0:
        ndrops = rng.binomial(chunks, p, size=n_samples)
        total = int(ndrops.sum())
        if total:
            # Chunk positions i in 1..M, uniform; failure counts >= 1.
            pos = rng.integers(1, chunks + 1, size=total)
            fails = rng.geometric(1.0 - p, size=total)
            x = pos * t + o * fails
            idx = np.repeat(np.arange(n_samples), ndrops)
            np.maximum.at(out, idx, x)
    return out + params.rtt
