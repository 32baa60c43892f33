"""Figure 11: MDS vs XOR codec -- encode cost and resilience."""

import numpy as np

from repro.common.units import KiB
from repro.ec import get_codec
from repro.experiments import fig11

from conftest import run_once, show


def test_fig11_encode_throughput(benchmark):
    table = run_once(benchmark, fig11.run_throughput)
    show(table)
    rows = {r[0]: r[1:] for r in table.rows}
    xor_bps, xor_cores = rows["xor"]
    mds_bps, mds_cores = rows["mds"]
    # Paper shape: XOR needs fewer cores than MDS to hide encoding behind
    # 400 Gbit/s (paper: 4 vs 8 with SIMD kernels; NumPy exaggerates the
    # gap -- see DESIGN.md).
    assert xor_bps > 2 * mds_bps
    assert xor_cores < mds_cores
    assert xor_cores <= 8  # XOR hides encoding on a handful of cores


def test_fig11_fallback_probability(benchmark):
    table = run_once(benchmark, fig11.run_fallback)
    show(table)
    drops = table.column("p_packet")
    mds = dict(zip(drops, table.column("mds_fallback")))
    xor = dict(zip(drops, table.column("xor_fallback")))
    # Paper: with a 128 MiB buffer, XOR falls back to SR at ~1e-3 while MDS
    # remains robust beyond 1e-2.
    assert xor[1e-3] > 0.5
    assert mds[1e-3] < 0.01
    assert mds[1e-4] < 1e-6
    assert xor[1e-2] > 0.99
    # Both eventually collapse at extreme drop rates.
    assert mds[5e-2] > 0.99


def test_fig11_codec_throughput_raw(benchmark):
    """pytest-benchmark timing of the actual MDS encode hot loop."""
    code = get_codec("mds", 32, 8)
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=(32, 64 * KiB), dtype=np.uint8)
    code.encode(data)  # warm-up
    benchmark(code.encode, data)
