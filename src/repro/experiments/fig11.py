"""Figure 11: MDS versus XOR erasure codes (compute cost and resilience).

Two views, as in the paper:

* encode throughput of the NumPy codecs at the paper's operating point
  (128 MiB buffer, 64 KiB chunks, k=32, m=8), the number of cores needed to
  hide encoding behind a 400 Gbit/s link (linear multi-core extrapolation,
  as in the paper's OpenMP implementation), and
* the SR-fallback probability of each code across drop rates for a 128 MiB
  buffer -- XOR's weaker per-group protection makes it fall back around
  1e-3 while MDS survives beyond 1e-2.

NOTE: absolute throughputs are NumPy-vs-NumPy, standing in for
ISA-L / AVX-512 (see DESIGN.md): the XOR/MDS *ratio* is exaggerated
relative to the paper's hand-tuned SIMD kernels, but the ordering and the
resilience trade-off are preserved.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.common.units import Gbit, KiB, MiB
from repro.ec.codec import get_codec
from repro.experiments.report import Table
from repro.models.decode_prob import p_decode_mds, p_decode_xor, p_fallback
from repro.models.params import packet_to_chunk_drop

CHUNK = 64 * KiB
MTU = 4 * KiB
DEFAULT_DROPS = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 5e-2]
#: Timed encodes per measurement (the best one counts), after a warm-up.
REPEATS = 3
LINK_BPS = 400 * Gbit
#: The right panel's buffer and code.
BUFFER_BYTES = 128 * MiB
K, M = 32, 8


def measure_encode_throughput(
    codec_name: str,
    *,
    k: int = 32,
    m: int = 8,
    chunk_bytes: int = CHUNK,
) -> float:
    """Single-core encode throughput in bits of data per second."""
    codec = get_codec(codec_name, k, m)
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=(k, chunk_bytes), dtype=np.uint8)
    codec.encode(data)  # warm-up
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        codec.encode(data)
        best = min(best, time.perf_counter() - start)
    return data.nbytes * 8.0 / best


def run_throughput(*, k: int = 32, m: int = 8, chunk_bytes: int = CHUNK) -> Table:
    """Left panel: encode rate and cores needed to keep up with the link."""
    table = Table(
        title=f"Figure 11 (left): encode throughput, k={k}, m={m}",
        columns=["codec", "gbit_per_core", "cores_for_400G"],
        notes="NumPy kernels standing in for ISA-L (MDS) / AVX-512 (XOR)",
    )
    for name in ("xor", "mds"):
        bps = measure_encode_throughput(name, k=k, m=m, chunk_bytes=chunk_bytes)
        cores = math.ceil(LINK_BPS / bps)
        table.add_row(name, round(bps / 1e9, 2), cores)
    return table


def run_fallback(*, drops: list[float] | None = None) -> Table:
    """Right panel: P(fallback to SR) for MDS vs XOR across drop rates."""
    drops = drops if drops is not None else DEFAULT_DROPS
    nchunks = BUFFER_BYTES // CHUNK
    nsub = math.ceil(nchunks / K)
    ppc = CHUNK // MTU
    table = Table(
        title=(
            f"Figure 11 (right): SR-fallback probability "
            f"({BUFFER_BYTES >> 20} MiB, k={K}, m={M})"
        ),
        columns=["p_packet", "p_chunk", "mds_fallback", "xor_fallback"],
    )
    for p in drops:
        pc = packet_to_chunk_drop(p, ppc)
        mds = p_fallback(p_decode_mds(pc, K, M), nsub)
        xor = p_fallback(p_decode_xor(pc, K, M), nsub)
        table.add_row(p, round(pc, 8), round(mds, 6), round(xor, 6))
    return table


def run() -> list[Table]:
    return [run_throughput(), run_fallback()]
