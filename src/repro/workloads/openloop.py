"""Open-loop multi-tenant traffic: heavy-tailed arrivals at fabric scale.

The closed-loop workloads elsewhere in the repo (incast, ring Allreduce)
post the next message only when the previous one completes.  A
RDMA-as-a-service fabric sees the opposite: thousands of tenants inject
messages on their *own* clocks, indifferent to whether the fabric is
keeping up -- the open-loop regime where congestion collapse, fairness
and isolation actually show themselves.

:func:`generate` produces a deterministic :class:`Workload` -- flat,
time-sorted numpy arrays of ``(time, tenant, size)`` -- from an
:class:`OpenLoopConfig`:

* **arrivals** are per-tenant Poisson processes (exponential gaps);
  tenant rates are equal by default or Pareto-skewed (``rate_skew``) so a
  few elephants carry most of the offered load, matching measured
  datacenter tenancy;
* **sizes** are heavy-tailed -- Pareto (default) or lognormal -- around
  ``mean_message_bytes``, truncated at ``max_message_bytes`` so a single
  draw cannot exceed what a fabric QP accepts.

Everything is drawn from named :class:`~repro.sim.rng.RngStreams`
substreams, so the same seed reproduces the same schedule byte for byte
no matter what other components draw, and ``repro.fabric`` can replay
one schedule under different policies (enforcement on/off, cc
algorithms) for apples-to-apples fairness comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.common.config import Bounded, bound, check_bounds
from repro.common.errors import ConfigError
from repro.common.units import KiB, MiB
from repro.sim.rng import RngStreams

SIZE_DISTRIBUTIONS = ("pareto", "lognormal", "fixed")
#: Pareto tail index of the sizes; it exceeds 1, so the mean exists.  2.0
#: is a moderate tail, 1.2 a violent one.
PARETO_SHAPE = 1.5
#: Lognormal sigma of the sizes (log-space standard deviation).
LOGNORMAL_SIGMA = 1.0


@dataclass(frozen=True)
class OpenLoopConfig(Bounded):
    """Shape of one open-loop multi-tenant arrival process."""

    #: Number of tenants injecting traffic.
    tenants: int = field(metadata=bound(ge=1))
    #: Arrival window in seconds; tenants stop injecting at this time.
    duration: float = field(metadata=bound(gt=0))
    #: Aggregate offered load across all tenants in bits/second.
    offered_load_bps: float = field(metadata=bound(gt=0))
    #: Message-size distribution family.
    size_dist: str = field(default="pareto", metadata=bound(one_of=SIZE_DISTRIBUTIONS))
    #: Mean message size in bytes (all families are parameterized to it).
    mean_message_bytes: int = field(default=32 * KiB, metadata=bound(gt=0))
    #: Hard cap on a single message (truncation keeps the DES event count
    #: bounded and models the fabric's max registered-buffer size).
    max_message_bytes: int = 8 * MiB
    #: 0 = equal per-tenant rates; > 0 draws per-tenant rate weights from
    #: a Pareto with this tail index (smaller = more skewed).
    rate_skew: float = field(default=0.0, metadata=bound(ge=0))
    #: Smallest message the generator will emit.
    min_message_bytes: int = field(default=256, metadata=bound(gt=0))

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.max_message_bytes < self.mean_message_bytes:
            raise ConfigError(
                f"max message size {self.max_message_bytes} below mean "
                f"{self.mean_message_bytes}"
            )
        if self.min_message_bytes > self.mean_message_bytes:
            raise ConfigError(
                f"min message size {self.min_message_bytes} above mean "
                f"{self.mean_message_bytes}"
            )


@dataclass(frozen=True)
class Workload:
    """A materialized open-loop schedule: flat arrays, time-sorted."""

    config: OpenLoopConfig
    #: Arrival times in seconds, ascending.
    times: np.ndarray
    #: Tenant index of each arrival (int32, in ``[0, config.tenants)``).
    tenants: np.ndarray
    #: Message size in bytes of each arrival (int64).
    sizes: np.ndarray
    #: Per-tenant offered rate in bits/second (len ``config.tenants``).
    tenant_rates_bps: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.times) == len(self.tenants) == len(self.sizes)):
            raise ConfigError("workload arrays must align")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def total_bytes(self) -> int:
        return int(self.sizes.sum())

    def for_tenant(self, tenant: int) -> "Workload":
        """The sub-schedule of one tenant (solo-baseline replays)."""
        mask = self.tenants == tenant
        return Workload(
            config=self.config,
            times=self.times[mask],
            tenants=self.tenants[mask],
            sizes=self.sizes[mask],
            tenant_rates_bps=self.tenant_rates_bps,
        )


def _tenant_weights(config: OpenLoopConfig, rng: np.random.Generator) -> np.ndarray:
    if config.rate_skew == 0.0:
        return np.full(config.tenants, 1.0 / config.tenants)
    draws = rng.pareto(config.rate_skew, size=config.tenants) + 1.0
    return draws / draws.sum()


def _draw_sizes(
    config: OpenLoopConfig, n: int, rng: np.random.Generator
) -> np.ndarray:
    mean = float(config.mean_message_bytes)
    if config.size_dist == "fixed":
        sizes = np.full(n, mean)
    elif config.size_dist == "pareto":
        # Lomax + scale parameterized so E[size] = mean.
        shape = PARETO_SHAPE
        scale = mean * (shape - 1.0) / shape
        sizes = scale * (rng.pareto(shape, size=n) + 1.0)
    else:  # lognormal
        sigma = LOGNORMAL_SIGMA
        mu = math.log(mean) - sigma * sigma / 2.0
        sizes = rng.lognormal(mu, sigma, size=n)
    return np.clip(
        np.rint(sizes), config.min_message_bytes, config.max_message_bytes
    ).astype(np.int64)


def generate(
    config: OpenLoopConfig,
    *,
    streams: RngStreams | None = None,
    seed: int = 0,
) -> Workload:
    """Materialize one deterministic open-loop schedule.

    Tenant rate weights, per-tenant arrival gaps and message sizes each
    draw from their own named substream, so the schedule is a pure
    function of ``(config, seed)``.
    """
    if streams is None:
        streams = RngStreams(seed)
    weights = _tenant_weights(config, streams.get("workload.openloop.weights"))
    mean_rate_msgs = (
        config.offered_load_bps / 8.0 / config.mean_message_bytes
    )  # aggregate messages/second

    arrivals_rng = streams.get("workload.openloop.arrivals")
    # Seeded empty: a window shorter than every first gap is no arrival.
    all_times: list[np.ndarray] = [np.empty(0)]
    all_tenants: list[np.ndarray] = [np.empty(0, dtype=np.int32)]
    for tenant in range(config.tenants):
        lam = mean_rate_msgs * weights[tenant]
        # Draw exponential gaps in blocks until the window is covered; the
        # expected count plus 4 sigma rarely needs a second block.
        expect = lam * config.duration
        times = np.empty(0)
        t_end = 0.0
        while t_end < config.duration:
            block = max(16, int(expect + 4.0 * math.sqrt(expect + 1.0)))
            gaps = arrivals_rng.exponential(1.0 / lam, size=block)
            chunk = t_end + np.cumsum(gaps)
            times = np.concatenate([times, chunk])
            t_end = float(times[-1])
        times = times[times < config.duration]
        all_times.append(times)
        all_tenants.append(np.full(len(times), tenant, dtype=np.int32))

    times = np.concatenate(all_times)
    tenants = np.concatenate(all_tenants)
    order = np.argsort(times, kind="stable")
    times = times[order]
    tenants = tenants[order]
    sizes = _draw_sizes(config, len(times), streams.get("workload.openloop.sizes"))
    return Workload(
        config=config,
        times=times,
        tenants=tenants,
        sizes=sizes,
        tenant_rates_bps=weights * config.offered_load_bps,
    )
