"""Availability-sampling math: gap detection with few random probes.

The sampling reliability mode replaces per-chunk acknowledgement with a
statistical liveness check (the DAS idea from the Animica DA spec): draw
``s`` uniform probes *without replacement* from a population of ``n``
chunks of which ``g`` are missing.  The probability every probe lands on a
present chunk -- the gap going undetected this round -- is hypergeometric::

    P_miss(n, g, s) = C(n - g, s) / C(n, s)
                    = prod_{i=0}^{s-1} (n - g - i) / (n - i)

which for small sampling fractions behaves like ``(1 - g/n)^s``.  Repeated
rounds drive the residual miss probability down geometrically, so a handful
of probes per segment per RTT detects any material gap in O(1) rounds --
the overhead/confidence trade-off the benchmark curve validates against
these exact expressions.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import ConfigError


def _validate(population: int, missing: int, probes: int) -> None:
    if population <= 0:
        raise ConfigError(f"population must be > 0, got {population}")
    if not 0 <= missing <= population:
        raise ConfigError(
            f"missing must be in [0, {population}], got {missing}"
        )
    if probes < 0:
        raise ConfigError(f"probes must be >= 0, got {probes}")


def miss_probability(population: int, missing: int, probes: int) -> float:
    """P(``probes`` draws without replacement all avoid ``missing`` gaps)."""
    _validate(population, missing, probes)
    if missing == 0:
        return 1.0
    if probes == 0:
        return 1.0
    if probes > population - missing:
        return 0.0  # pigeonhole: more probes than present chunks
    # Log-space product for numerical stability at large populations.
    log_p = 0.0
    for i in range(probes):
        log_p += math.log(population - missing - i) - math.log(population - i)
    return math.exp(log_p)


def draw_probes(
    rng: np.random.Generator, population: int, probes: int
) -> np.ndarray:
    """Deterministic probe indices: ``probes`` draws without replacement.

    Matches the hypergeometric model above; callers feed a named
    :class:`~repro.sim.rng.RngStreams` substream so the same seed always
    probes the same chunks.
    """
    if population <= 0:
        raise ConfigError(f"population must be > 0, got {population}")
    if probes <= 0:
        raise ConfigError(f"probes must be > 0, got {probes}")
    if probes >= population:
        return np.arange(population)
    return rng.choice(population, size=probes, replace=False)
