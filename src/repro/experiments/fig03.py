"""Figure 3: impact of reliability on message completion time at 400 Gbit/s.

Three sweeps of mean slowdown (completion time / lossless completion time)
for Selective Repeat versus EC(32, 8):

* (a) message size 4 KiB .. 256 GiB at 3750 km (25 ms RTT), P_drop = 1e-5;
* (b) inter-DC distance for an 8 GiB message, P_drop = 1e-5;
* (c) drop rate for a 128 MiB message at 3750 km.

Drop rates are per *packet* (4 KiB MTU) and converted to the model's chunk
granularity (64 KiB chunks) via ``P_chunk = 1 - (1-p)^16``.
"""

from __future__ import annotations

from repro.common.units import GiB, KiB, MiB, distance_to_rtt
from repro.experiments.report import Table
from repro.models.ec_model import ec_expected_completion
from repro.models.params import ModelParams, packet_to_chunk_drop
from repro.models.sr_model import sr_expected_completion

MTU = 4 * KiB
CHUNK = 64 * KiB
PPC = CHUNK // MTU
#: EC(K, M), the code every sweep compares SR against.
K, M = 32, 8
DISTANCE_KM = 3750.0
P_PACKET = 1e-5
#: The fixed message of sweep (b) and of sweep (c).
DISTANCE_SWEEP_SIZE = 8 * GiB
DROP_SWEEP_SIZE = 128 * MiB

DEFAULT_SIZES = [
    4 * KiB, 64 * KiB, 1 * MiB, 16 * MiB, 128 * MiB, 1 * GiB,
    8 * GiB, 32 * GiB, 64 * GiB, 128 * GiB, 256 * GiB,
]
DEFAULT_DISTANCES = [10.0, 100.0, 375.0, 1000.0, 3750.0, 10000.0, 37500.0]
DEFAULT_DROPS = [1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2]


def _params(*, distance_km: float, p_packet: float) -> ModelParams:
    return ModelParams(
        bandwidth_bps=400e9,
        rtt=distance_to_rtt(distance_km),
        chunk_bytes=CHUNK,
        drop_probability=packet_to_chunk_drop(p_packet, PPC),
    )


def _slowdowns(params: ModelParams, size: int) -> tuple[float, float]:
    chunks = params.chunks_in(size)
    ideal = params.ideal_completion(size)
    sr = sr_expected_completion(params, chunks) / ideal
    ec = ec_expected_completion(params, chunks, k=K, m=M) / ideal
    return sr, ec


def run_size_sweep(
    *, sizes: list[int] | None = None, p_packet: float = P_PACKET
) -> Table:
    """(a): slowdown vs message size."""
    sizes = sizes if sizes is not None else DEFAULT_SIZES
    params = _params(distance_km=DISTANCE_KM, p_packet=p_packet)
    table = Table(
        title=(
            f"Figure 3a: slowdown vs message size "
            f"({DISTANCE_KM:g} km, P_pkt={p_packet:g})"
        ),
        columns=["size_B", "chunks", "sr_slowdown", "ec_slowdown"],
    )
    for size in sizes:
        sr, ec = _slowdowns(params, size)
        table.add_row(size, params.chunks_in(size), round(sr, 4), round(ec, 4))
    return table


def run_distance_sweep(*, distances_km: list[float] | None = None) -> Table:
    """(b): slowdown vs inter-DC distance for a fixed message."""
    distances = distances_km if distances_km is not None else DEFAULT_DISTANCES
    size = DISTANCE_SWEEP_SIZE
    table = Table(
        title=f"Figure 3b: slowdown vs distance ({size >> 30} GiB, P_pkt={P_PACKET:g})",
        columns=["distance_km", "rtt_ms", "sr_slowdown", "ec_slowdown"],
    )
    for d in distances:
        params = _params(distance_km=d, p_packet=P_PACKET)
        sr, ec = _slowdowns(params, size)
        table.add_row(d, round(params.rtt * 1e3, 3), round(sr, 4), round(ec, 4))
    return table


def run_drop_sweep(*, drops: list[float] | None = None) -> Table:
    """(c): slowdown vs packet drop rate for a fixed message."""
    drops = drops if drops is not None else DEFAULT_DROPS
    size = DROP_SWEEP_SIZE
    table = Table(
        title=(
            f"Figure 3c: slowdown vs drop rate "
            f"({size >> 20} MiB, {DISTANCE_KM:g} km)"
        ),
        columns=["p_packet", "p_chunk", "sr_slowdown", "ec_slowdown"],
    )
    for p in drops:
        params = _params(distance_km=DISTANCE_KM, p_packet=p)
        sr, ec = _slowdowns(params, size)
        table.add_row(p, round(params.drop_probability, 8), round(sr, 4), round(ec, 4))
    return table


def run() -> list[Table]:
    return [run_size_sweep(), run_distance_sweep(), run_drop_sweep()]
