"""Ring Allreduce across datacenters with lossy reliable Writes.

The ring algorithm runs ``2N - 2`` rounds; in round ``r`` datacenter ``i``
receives a segment of ``buffer / N`` bytes from its predecessor.  Round
completion follows the Appendix C recurrence::

    T(i, r) = max(T(i-1, r-1), T(i, r-1)) + t(i, r-1)

where ``t`` is the P2P reliable-Write completion time -- here sampled i.i.d.
from one of the Section 4.2 protocol models.  Tail completion time is the
maximum of ``T(i, 2N-2)`` over datacenters.

Stage samplers adapt the models: :func:`sr_stage_sampler`,
:func:`ec_stage_sampler` and :func:`ideal_stage_sampler` (the LogGP-style
lossless baseline).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigError
from repro.models.ec_model import ec_sample_completion
from repro.models.params import ModelParams
from repro.models.sr_model import sr_sample_completion

#: A stage sampler draws ``n`` i.i.d. P2P completion times for a segment of
#: ``message_bytes``.
StageSampler = Callable[[int, int, np.random.Generator], np.ndarray]


def sr_stage_sampler(params: ModelParams) -> StageSampler:
    """Per-stage times from the Selective Repeat model."""

    def sample(message_bytes: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return sr_sample_completion(
            params, params.chunks_in(message_bytes), n, rng=rng
        )

    return sample


def ec_stage_sampler(params: ModelParams) -> StageSampler:
    """Per-stage times from the Erasure Coding model, MDS(32, 8)."""

    def sample(message_bytes: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return ec_sample_completion(
            params, params.chunks_in(message_bytes), n, k=32, m=8, codec="mds", rng=rng
        )

    return sample


def ideal_stage_sampler(params: ModelParams) -> StageSampler:
    """Deterministic lossless baseline (LogGP-style)."""

    def sample(message_bytes: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n, params.ideal_completion(message_bytes))

    return sample


@dataclass
class RingAllreduce:
    """Monte-Carlo simulator of the inter-DC ring Allreduce."""

    n_datacenters: int
    buffer_bytes: int

    def __post_init__(self) -> None:
        if self.n_datacenters < 2:
            raise ConfigError(
                f"ring Allreduce needs >= 2 datacenters, got {self.n_datacenters}"
            )
        if self.buffer_bytes <= 0:
            raise ConfigError(f"buffer must be > 0, got {self.buffer_bytes}")

    @property
    def rounds(self) -> int:
        return 2 * self.n_datacenters - 2

    @property
    def segment_bytes(self) -> int:
        """Per-stage transfer: the ring moves buffer/N-sized segments."""
        return max(1, math.ceil(self.buffer_bytes / self.n_datacenters))

    def sample(
        self,
        stage_sampler: StageSampler,
        n_samples: int = 1000,
        *,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Completion-time samples of the whole collective.

        Vectorized over samples: per round, every datacenter's finish time
        is the max of its own and its predecessor's previous finish, plus a
        freshly sampled stage duration.
        """
        if n_samples <= 0:
            raise ConfigError(f"need >= 1 sample, got {n_samples}")
        rng = rng if rng is not None else np.random.default_rng()
        n = self.n_datacenters
        finish = np.zeros((n_samples, n))
        for _round in range(self.rounds):
            durations = stage_sampler(
                self.segment_bytes, n_samples * n, rng
            ).reshape(n_samples, n)
            prev = np.roll(finish, 1, axis=1)  # predecessor i-1 (mod N)
            finish = np.maximum(finish, prev) + durations
        return finish.max(axis=1)
