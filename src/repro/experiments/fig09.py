"""Figure 9: EC speedup over SR heatmap (400 Gbit/s, 25 ms RTT).

Grid of mean-completion-time speedups ``E[T_SR] / E[T_EC]`` over message
size (rows) x packet drop rate (columns).  The paper's red region -- EC
ahead for 128 KiB..1 GiB messages within the 1e-6..1e-2 drop range -- and
the SR-favorable regime (large messages, low drop rates) both emerge.
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

DEFAULT_SIZES = [
    16 * KiB, 128 * KiB, 1 * MiB, 8 * MiB, 64 * MiB,
    128 * MiB, 512 * MiB, 1 * GiB, 8 * GiB,
]
DEFAULT_DROPS = [1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
DISTANCE_KM = 3750.0
BANDWIDTH_BPS = 400e9


def run(
    *,
    sizes: list[int] | None = None,
    drops: list[float] | None = None,
    k: int = 32,
    m: int = 8,
    codec: str = "mds",
) -> Table:
    """One row per message size; one speedup column per drop rate.

    ``codec="xor"`` regenerates the heatmap for the cheaper-but-weaker XOR
    code (an ablation beyond the paper's MDS-only figure).
    """
    sizes = sizes if sizes is not None else DEFAULT_SIZES
    drops = drops if drops is not None else DEFAULT_DROPS
    table = Table(
        title=(
            f"Figure 9: EC {codec.upper()}({k},{m}) speedup over SR "
            f"(mean, {BANDWIDTH_BPS / 1e9:g} Gbit/s, {DISTANCE_KM:g} km)"
        ),
        columns=["size_B"] + [f"p={p:g}" for p in drops],
        notes="speedup = E[T_SR] / E[T_EC]; > 1 means EC wins",
    )
    for size in sizes:
        row: list = [size]
        for p in drops:
            params = ModelParams(
                bandwidth_bps=BANDWIDTH_BPS,
                rtt=distance_to_rtt(DISTANCE_KM),
                chunk_bytes=CHUNK,
                drop_probability=packet_to_chunk_drop(p, PPC),
            )
            chunks = params.chunks_in(size)
            sr = sr_expected_completion(params, chunks)
            ec = ec_expected_completion(params, chunks, k=k, m=m, codec=codec)
            row.append(round(sr / ec, 3))
        table.add_row(*row)
    return table
