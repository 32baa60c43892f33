"""Submessage decode probabilities for MDS and XOR codes (Appendix B).

For chunk drop probability ``p``, data submessage of ``k`` chunks and parity
submessage of ``m`` chunks:

* MDS: recovery succeeds iff at most ``m`` of the ``k + m`` coded chunks
  dropped::

      P_MDS = sum_{i=0}^{m} C(k+m, i) p^i (1-p)^(k+m-i)

* XOR (modulo groups of ``n = k/m + 1`` chunks): every group must lose at
  most one chunk::

      P_XOR = [ (1-p)^n + n p (1-p)^(n-1) ]^m

Both are evaluated in log space for numerical stability at tiny ``p``.

The 2-D row+column product code (:class:`repro.ec.rs2d.Rs2dCode`) has no
closed-form recovery probability -- the iterative peel couples the axes --
so :func:`p_decode_rs2d` estimates it by deterministic Monte-Carlo over the
exact peel predicate (memoized per parameter point).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.common.errors import ConfigError


def _validate(p_drop: float, k: int, m: int) -> None:
    if not 0.0 <= p_drop <= 1.0:
        raise ConfigError(f"drop probability must be in [0, 1], got {p_drop}")
    if k <= 0 or m <= 0:
        raise ConfigError(f"need k, m > 0, got k={k}, m={m}")


def p_decode_mds(p_drop: float, k: int, m: int) -> float:
    """Probability an MDS(k, m) submessage is recoverable.

    The only caller of SciPy in the package: ``scipy.stats`` (~0.5 s,
    ~65 MiB) is imported here, by the first call that needs the CDF, so a
    process that only simulates never loads it.
    """
    _validate(p_drop, k, m)
    if p_drop == 0.0:
        return 1.0
    if p_drop == 1.0:
        return 0.0
    from scipy import stats

    return float(stats.binom.cdf(m, k + m, p_drop))


def p_decode_xor(p_drop: float, k: int, m: int) -> float:
    """Probability a XOR modulo-group (k, m) submessage is recoverable."""
    _validate(p_drop, k, m)
    if k % m != 0:
        raise ConfigError(f"XOR code needs m | k, got k={k}, m={m}")
    if p_drop == 0.0:
        return 1.0
    if p_drop == 1.0:
        return 0.0
    n = k // m + 1
    q = 1.0 - p_drop
    group_ok = q**n + n * p_drop * q ** (n - 1)
    if group_ok <= 0.0:
        return 0.0
    return float(math.exp(m * math.log(group_ok)))


#: Monte-Carlo trials of :func:`p_decode_rs2d`, drawn from seed 0.
RS2D_TRIALS = 2000


@lru_cache(maxsize=4096)
def p_decode_rs2d(p_drop: float, k: int, m: int) -> float:
    """Probability an rs2d(k, m) submessage peels (Monte-Carlo estimate).

    Geometry matches the ``"rs2d"`` registry factory: a sqrt(k) x sqrt(k)
    data grid with ``m`` parity chunks split evenly between the row and
    column axes.  Deterministic (``RS2D_TRIALS`` draws from seed 0);
    cached so heatmap sweeps evaluate each parameter point once.
    """
    from repro.ec import get_codec

    _validate(p_drop, k, m)
    if p_drop == 0.0:
        return 1.0
    if p_drop == 1.0:
        return 0.0
    code = get_codec("rs2d", k, m)
    rng = np.random.default_rng(0)
    present = rng.random((RS2D_TRIALS, k + m)) >= p_drop
    hits = sum(1 for row in present if code.recoverable(row))
    return hits / RS2D_TRIALS


def p_fallback(p_decode: float, n_submessages: int) -> float:
    """P(at least one of L submessages fails) = 1 - P_EC^L (Section 4.2.3)."""
    if not 0.0 <= p_decode <= 1.0:
        raise ConfigError(f"decode probability must be in [0, 1], got {p_decode}")
    if n_submessages <= 0:
        raise ConfigError(f"need >= 1 submessage, got {n_submessages}")
    if p_decode == 0.0:
        return 1.0
    if p_decode == 1.0:
        return 0.0
    return max(0.0, -math.expm1(n_submessages * math.log(p_decode)))


def expected_failures(p_decode: float, n_submessages: int) -> float:
    """E[failed submessages] = L (1 - P_EC) (Section 4.2.3)."""
    if not 0.0 <= p_decode <= 1.0:
        raise ConfigError(f"decode probability must be in [0, 1], got {p_decode}")
    if n_submessages <= 0:
        raise ConfigError(f"need >= 1 submessage, got {n_submessages}")
    return n_submessages * (1.0 - p_decode)
