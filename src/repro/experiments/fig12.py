"""Figure 12: impact of inter-DC distance and bandwidth (128 MiB Write).

For each link bandwidth, sweep the inter-DC distance and report SR and EC
mean completion times normalized by the lossless Write time.  The paper's
observation: as the bandwidth-delay product grows (longer distance or
fatter pipe), retransmissions become more exposed and EC eventually
overtakes SR -- the crossover distance shrinks with bandwidth.
"""

from __future__ import annotations

from repro.common.units import Gbit, KiB, MiB, Tbit, distance_to_rtt
from repro.experiments.report import Table
from repro.models.ec_model import ec_expected_completion
from repro.models.params import ModelParams, packet_to_chunk_drop
from repro.models.sr_model import sr_expected_completion

MTU = 4 * KiB
CHUNK = 64 * KiB
PPC = CHUNK // MTU

DEFAULT_DISTANCES = [10.0, 100.0, 375.0, 1000.0, 3750.0, 10000.0, 37500.0, 100000.0]
DEFAULT_BANDWIDTHS = [100 * Gbit, 400 * Gbit, 800 * Gbit, 1.6 * Tbit]
#: The written message, the packet drop rate and EC(K, M).
SIZE = 128 * MiB
P_PACKET = 1e-5
K, M = 32, 8


def run(
    *,
    distances_km: list[float] | None = None,
    bandwidths_bps: list[float] | None = None,
) -> Table:
    distances = distances_km if distances_km is not None else DEFAULT_DISTANCES
    bandwidths = bandwidths_bps if bandwidths_bps is not None else DEFAULT_BANDWIDTHS
    table = Table(
        title=(
            f"Figure 12: normalized completion vs distance x bandwidth "
            f"({SIZE >> 20} MiB, P_pkt={P_PACKET:g})"
        ),
        columns=["distance_km"]
        + [
            f"{'sr' if which == 0 else 'ec'}@{bw / 1e9:g}G"
            for bw in bandwidths
            for which in (0, 1)
        ],
        notes="each value = mean completion / lossless completion",
    )
    p_chunk = packet_to_chunk_drop(P_PACKET, PPC)
    for d in distances:
        row: list = [d]
        for bw in bandwidths:
            params = ModelParams(
                bandwidth_bps=bw,
                rtt=distance_to_rtt(d),
                chunk_bytes=CHUNK,
                drop_probability=p_chunk,
            )
            chunks = params.chunks_in(SIZE)
            ideal = params.ideal_completion(SIZE)
            row.append(round(sr_expected_completion(params, chunks) / ideal, 3))
            row.append(
                round(ec_expected_completion(params, chunks, k=K, m=M) / ideal, 3)
            )
        table.add_row(*row)
    return table


def crossover_distance(*, bandwidth_bps: float) -> float | None:
    """Smallest swept distance at which EC beats SR (None if never)."""
    p_chunk = packet_to_chunk_drop(P_PACKET, PPC)
    for d in DEFAULT_DISTANCES:
        params = ModelParams(
            bandwidth_bps=bandwidth_bps,
            rtt=distance_to_rtt(d),
            chunk_bytes=CHUNK,
            drop_probability=p_chunk,
        )
        chunks = params.chunks_in(SIZE)
        if ec_expected_completion(params, chunks, k=K, m=M) < sr_expected_completion(
            params, chunks
        ):
            return d
    return None
