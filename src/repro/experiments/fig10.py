"""Figure 10: cross-continent deep dive (means, tails, NACK, MDS splits).

Four sub-experiments on the 400 Gbit/s, 3750 km (25 ms RTT) link:

* (a) mean and p99.9 slowdown vs message size at P_pkt = 1e-5, comparing
  SR RTO (RTO = 3 RTT), SR NACK (RTO = 1 RTT best-case approximation) and
  EC(32, 8);
* (b, c) the 128 MiB message across drop rates: mean and p99.9;
* (d) MDS data/parity splits (k, m) across drop rates for 128 MiB.
"""

from __future__ import annotations

import numpy as np

from repro.common.units import GiB, KiB, MiB, distance_to_rtt
from repro.experiments.report import Table
from repro.models.ec_model import ec_sample_completion
from repro.models.params import ModelParams, packet_to_chunk_drop
from repro.models.sr_model import sr_sample_completion
from repro.models.stats import summarize

MTU = 4 * KiB
CHUNK = 64 * KiB
PPC = CHUNK // MTU

#: Sweep (a): message sizes at ``P_PACKET``, drawn from seed 0.
SIZES = [
    1 * MiB, 8 * MiB, 32 * MiB, 128 * MiB, 512 * MiB, 1 * GiB, 8 * GiB,
]
P_PACKET = 1e-5
DEFAULT_DROPS = [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
DEFAULT_SPLITS = [(32, 2), (32, 4), (32, 8), (16, 8), (8, 8)]
#: Sweep (d)'s message.
SPLIT_SIZE = 128 * MiB


def _params(p_packet: float, *, rto_rtts: float = 3.0) -> ModelParams:
    return ModelParams(
        bandwidth_bps=400e9,
        rtt=distance_to_rtt(3750.0),
        chunk_bytes=CHUNK,
        drop_probability=packet_to_chunk_drop(p_packet, PPC),
        rto_rtts=rto_rtts,
    )


def _protocol_stats(
    size: int, p_packet: float, n_samples: int, rng: np.random.Generator
) -> dict[str, tuple[float, float]]:
    """(mean slowdown, p99.9 slowdown) for each protocol variant."""
    out: dict[str, tuple[float, float]] = {}
    for name, rto in (("sr_rto", 3.0), ("sr_nack", 1.0)):
        params = _params(p_packet, rto_rtts=rto)
        ideal = params.ideal_completion(size)
        s = summarize(
            sr_sample_completion(params, params.chunks_in(size), n_samples, rng=rng)
        ).slowdown(ideal)
        out[name] = (s.mean, s.p999)
    params = _params(p_packet)
    ideal = params.ideal_completion(size)
    s = summarize(
        ec_sample_completion(
            params, params.chunks_in(size), n_samples, k=32, m=8, rng=rng
        )
    ).slowdown(ideal)
    out["ec"] = (s.mean, s.p999)
    return out


def run_size_sweep(*, n_samples: int = 4000) -> Table:
    """(a): mean + p99.9 slowdowns vs message size."""
    rng = np.random.default_rng(0)
    table = Table(
        title=f"Figure 10a: slowdown vs size (P_pkt={P_PACKET:g}, 3750 km)",
        columns=[
            "size_B",
            "sr_rto_mean", "sr_rto_p999",
            "sr_nack_mean", "sr_nack_p999",
            "ec_mean", "ec_p999",
        ],
    )
    for size in SIZES:
        st = _protocol_stats(size, P_PACKET, n_samples, rng)
        table.add_row(
            size,
            round(st["sr_rto"][0], 3), round(st["sr_rto"][1], 3),
            round(st["sr_nack"][0], 3), round(st["sr_nack"][1], 3),
            round(st["ec"][0], 3), round(st["ec"][1], 3),
        )
    return table


def run_drop_sweep(
    *,
    drops: list[float] | None = None,
    size: int = 128 * MiB,
    n_samples: int = 4000,
    seed: int = 1,
) -> Table:
    """(b, c): 128 MiB across drop rates, mean and p99.9."""
    drops = drops if drops is not None else DEFAULT_DROPS
    rng = np.random.default_rng(seed)
    table = Table(
        title=f"Figure 10b/c: slowdown vs drop rate ({size >> 20} MiB, 3750 km)",
        columns=[
            "p_packet",
            "sr_rto_mean", "sr_rto_p999",
            "sr_nack_mean", "sr_nack_p999",
            "ec_mean", "ec_p999",
        ],
    )
    for p in drops:
        st = _protocol_stats(size, p, n_samples, rng)
        table.add_row(
            p,
            round(st["sr_rto"][0], 3), round(st["sr_rto"][1], 3),
            round(st["sr_nack"][0], 3), round(st["sr_nack"][1], 3),
            round(st["ec"][0], 3), round(st["ec"][1], 3),
        )
    return table


def run_split_sweep(
    *,
    splits: list[tuple[int, int]] | None = None,
    drops: list[float] | None = None,
    n_samples: int = 2000,
    seed: int = 2,
) -> Table:
    """(d): MDS (k, m) splits across drop rates -- mean slowdown."""
    splits = splits if splits is not None else DEFAULT_SPLITS
    drops = drops if drops is not None else DEFAULT_DROPS
    size = SPLIT_SIZE
    rng = np.random.default_rng(seed)
    table = Table(
        title=f"Figure 10d: MDS split comparison ({size >> 20} MiB, mean slowdown)",
        columns=["p_packet"] + [f"k={k},m={m}" for k, m in splits],
        notes="lower data-to-parity ratios protect better but inflate bandwidth",
    )
    for p in drops:
        params = _params(p)
        ideal = params.ideal_completion(size)
        row: list = [p]
        for k, m in splits:
            s = summarize(
                ec_sample_completion(
                    params, params.chunks_in(size), n_samples, k=k, m=m, rng=rng
                )
            ).slowdown(ideal)
            row.append(round(s.mean, 3))
        table.add_row(*row)
    return table


def run() -> list[Table]:
    return [run_size_sweep(), run_drop_sweep(), run_split_sweep()]
