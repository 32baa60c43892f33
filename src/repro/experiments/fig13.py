"""Figure 13: inter-datacenter ring Allreduce, EC-over-SR p99.9 speedup.

Two panels:

* (left) 128 MiB buffer, varying the number of datacenters (ring length);
* (right) 4 datacenters, varying the buffer size;

both across drop rates.  Tail completion time amplifies per-stage
reliability costs over the 2N-2 dependent stages, so EC's advantage in the
1e-6..1e-2 drop band compounds -- the paper reports speedups growing from
3x to more than 6x with drop rate.
"""

from __future__ import annotations

import numpy as np

from repro.common.units import KiB, MiB, distance_to_rtt
from repro.collectives.ring_allreduce import (
    RingAllreduce,
    ec_stage_sampler,
    sr_stage_sampler,
)
from repro.experiments.report import Table
from repro.models.params import ModelParams, packet_to_chunk_drop
from repro.models.stats import summarize

MTU = 4 * KiB
CHUNK = 64 * KiB
PPC = CHUNK // MTU

DEFAULT_DROPS = [1e-6, 1e-5, 1e-4, 1e-3]
DEFAULT_RING_SIZES = [2, 4, 8, 16]
#: The left panel's buffer; the right panel's buffers and ring length.
RING_SWEEP_BUFFER = 128 * MiB
BUFFERS = [32 * MiB, 128 * MiB, 512 * MiB]
N_DCS = 4


def _params(p_packet: float) -> ModelParams:
    return ModelParams(
        bandwidth_bps=400e9,
        rtt=distance_to_rtt(3750.0),
        chunk_bytes=CHUNK,
        drop_probability=packet_to_chunk_drop(p_packet, PPC),
    )


def _speedup(
    n_dcs: int,
    buffer_bytes: int,
    p_packet: float,
    n_samples: int,
    rng: np.random.Generator,
) -> float:
    params = _params(p_packet)
    ring = RingAllreduce(n_datacenters=n_dcs, buffer_bytes=buffer_bytes)
    sr = summarize(ring.sample(sr_stage_sampler(params), n_samples, rng=rng))
    ec = summarize(
        ring.sample(ec_stage_sampler(params), n_samples, rng=rng)
    )
    return sr.p999 / ec.p999


def run_ring_sweep(
    *,
    ring_sizes: list[int] | None = None,
    drops: list[float] | None = None,
    n_samples: int = 2000,
    seed: int = 0,
) -> Table:
    """(left): p99.9 speedup vs drop rate, one column per ring size."""
    ring_sizes = ring_sizes if ring_sizes is not None else DEFAULT_RING_SIZES
    drops = drops if drops is not None else DEFAULT_DROPS
    rng = np.random.default_rng(seed)
    table = Table(
        title=(
            f"Figure 13 (left): Allreduce p99.9 speedup, EC over SR "
            f"({RING_SWEEP_BUFFER >> 20} MiB buffer)"
        ),
        columns=["p_packet"] + [f"N={n}" for n in ring_sizes],
    )
    for p in drops:
        row: list = [p]
        for n in ring_sizes:
            row.append(round(_speedup(n, RING_SWEEP_BUFFER, p, n_samples, rng), 3))
        table.add_row(*row)
    return table


def run_buffer_sweep(*, n_samples: int = 2000, seed: int = 1) -> Table:
    """(right): p99.9 speedup vs drop rate, one column per buffer size."""
    rng = np.random.default_rng(seed)
    table = Table(
        title=f"Figure 13 (right): Allreduce p99.9 speedup ({N_DCS} datacenters)",
        columns=["p_packet"] + [f"{b >> 20}MiB" for b in BUFFERS],
    )
    for p in DEFAULT_DROPS:
        row: list = [p]
        for b in BUFFERS:
            row.append(round(_speedup(N_DCS, b, p, n_samples, rng), 3))
        table.add_row(*row)
    return table


def run() -> list[Table]:
    return [run_ring_sweep(), run_buffer_sweep()]
