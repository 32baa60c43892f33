"""Microbenchmarks of the datapath hot loops.

Performance-regression guards for the pieces every simulated packet
touches: bitmap updates, immediate encode/decode, GF(256) bulk multiply,
the DES event loop, and the vectorized Monte-Carlo samplers.  Run with
``pytest benchmarks/test_microbench.py --benchmark-only`` for timings.
"""

import numpy as np

from repro.common.bitmap import Bitmap
from repro.common.units import KiB
from repro.ec.gf256 import gf_matmul_rows
from repro.models.params import ModelParams
from repro.models.sr_model import sr_expected_completion, sr_sample_completion
from repro.sdr.imm import ImmLayout
from repro.sim.engine import Simulator


def test_bitmap_set_throughput(benchmark):
    bm = Bitmap(1 << 16)
    indices = np.random.default_rng(0).permutation(1 << 16)

    def run():
        bm.reset()
        for i in indices[:4096]:
            bm.set(int(i))
        return bm.count()

    assert benchmark(run) == 4096


def test_bitmap_cumulative_and_missing(benchmark):
    bm = Bitmap.from_indices(1 << 14, range(0, 1 << 14, 3))

    def run():
        return bm.cumulative(), len(bm.missing())

    cum, missing = benchmark(run)
    assert cum == 1
    assert missing == (1 << 14) - len(range(0, 1 << 14, 3))


def test_imm_encode_decode(benchmark):
    layout = ImmLayout()

    def run():
        acc = 0
        for pkt in range(2048):
            imm = layout.encode(pkt % 1024, pkt, pkt % 16)
            msg, idx, frag = layout.decode(imm)
            acc += msg + idx + frag
        return acc

    assert benchmark(run) > 0


def test_gf256_multiply_accumulate(benchmark):
    """The row kernel at the benchmark's MDS(32, 8) shape: 8 coefficient
    rows x 32 data rows of 16 KiB, i.e. 256 multiply-accumulates."""
    rng = np.random.default_rng(0)
    matrix = rng.integers(1, 256, (8, 32), dtype=np.uint8)
    data = rng.integers(0, 256, (32, 16 * KiB), dtype=np.uint8)

    parity = benchmark(lambda: gf_matmul_rows(matrix, data))
    assert parity.shape == (8, 16 * KiB)


def test_des_event_throughput(benchmark):
    """Raw engine speed: schedule-and-dispatch of 50k timer events."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1

        for i in range(50_000):
            sim.call_at(i * 1e-6, tick)
        sim.run()
        return count[0]

    assert benchmark(run) == 50_000


def test_sr_analytic_large_message(benchmark):
    """The Appendix A evaluation must stay fast at 4M chunks."""
    params = ModelParams(
        bandwidth_bps=400e9, rtt=25e-3, chunk_bytes=64 * KiB,
        drop_probability=1e-4,
    )

    result = benchmark(sr_expected_completion, params, 4_194_304)
    assert result > 0


def test_sr_monte_carlo_sampler(benchmark):
    params = ModelParams(
        bandwidth_bps=400e9, rtt=25e-3, chunk_bytes=64 * KiB,
        drop_probability=1e-3,
    )
    rng = np.random.default_rng(0)

    def run():
        return sr_sample_completion(params, 131_072, 1000, rng=rng)

    samples = benchmark(run)
    assert len(samples) == 1000
