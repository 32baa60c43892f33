"""The paper's claims as one table.

A row is a predicate decorated with :func:`claim`: its name is the row id,
its docstring the claim, and the decorator gives the figure or section the
claim backs and the ``repro`` call, with its shape, whose result the
predicate asserts on.  ``slow`` rows run at full size (``pytest
tests/test_claims.py -m slow``); the rest are tier-1 miniatures.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.cc.incast import run_incast
from repro.common.config import ChannelConfig, SdrConfig
from repro.common.units import GiB, Gbit, KiB, MiB, Tbit, distance_to_rtt
from repro.ec import get_codec
from repro.ec.sampling import draw_probes, miss_probability
from repro.experiments import fig02, fig03, fig09, fig10, fig11, fig12, fig13
from repro.experiments import fig14, fig15, fig16
from repro.fabric import ChaosConfig, ScaleConfig, chaos_scenario
from repro.fabric import fairness_scenario, scale_scenario, smoke_config
from repro.faults import named_schedule
from repro.models.burst import ge_chunk_drop_probability
from repro.models.params import ModelParams
from repro.models.sr_model import sr_expected_completion
from repro.net.loss import BernoulliLoss, GilbertElliottLoss
from repro.reliability.adaptive import DropRateEstimator
from repro.reliability.ec import EcConfig
from repro.reliability.sampling import SamplingConfig
from repro.reliability.sr import SrConfig
from repro.sdr import context_create
from repro.sdr.qp import SdrRecvWr, SdrSendWr
from repro.sdr.staged import StagedSdrQp
from repro.sim.rng import RngStreams
from repro.stack import build_link, build_pair, endpoints
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry.demo import run_demo
from repro.verbs.cq import CompletionQueue
from repro.verbs.mr import MemoryRegion
from repro.verbs.qp import SendWr, UcQp


@dataclass(frozen=True)
class Claim:
    """One row: ``check(run())`` asserts ``claim``."""

    id: str
    figure: str
    claim: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    slow: bool


CLAIMS: list[Claim] = []


def claim(figure, fn, *args, slow=True, params=(), **shape):
    """Add the decorated predicate to :data:`CLAIMS`, run on ``fn(*args, **shape)``,
    or with ``params`` as ``<name>_<v>`` run on ``fn(v, *args, **shape)`` per value."""

    def add(check):
        name = check.__name__
        calls = {f"{name}_{v}": (v, *args) for v in params} if params else {name: args}
        for row_id, call in calls.items():
            run = partial(fn, *call, **shape)
            CLAIMS.append(Claim(row_id, figure, check.__doc__, run, check, slow))
        return check

    return add


def _timed(fn, *args):
    """``fn(*args)`` and its wall-clock seconds."""
    t0 = time.perf_counter()
    return fn(*args), time.perf_counter() - t0


def _cells(table):
    """``{first cell: {column: cell}}`` for every row of ``table``."""
    return {row[0]: dict(zip(table.columns[1:], row[1:])) for row in table.rows}


def _slowdowns(table, key):
    """``(sr, ec)`` slowdowns keyed by the ``key`` column."""
    keys = table.column(key)
    sr, ec = table.column("sr_slowdown"), table.column("ec_slowdown")
    return dict(zip(keys, sr)), dict(zip(keys, ec))


@claim("Figure 2", fig02.run, trials=200, seed=0)
def fig02_wan_drop_campaign(table):
    """Drop rates rise with payload size and vary by orders of magnitude."""
    medians = table.column("median")
    assert medians == sorted(medians)
    assert medians[-1] > 3 * medians[0]
    # The paper reports up to 3 orders; the congestion model spans ~2
    # between its own percentiles plus binomial noise.
    assert all(s >= 1.5 for s in table.column("spread_orders"))
    # Paper anchor: 1 KiB trials land in the 1e-4 .. 1e-2 band.
    row_1k = table.rows[table.column("payload_B").index(1 * KiB)]
    assert row_1k[2] >= 1e-5
    assert row_1k[6] <= 5e-2


@claim(
    "Figure 2", fig02.run, slow=False,
    payload_sizes=[512, 8 * KiB], trials=40, seed=0,
)
def fig02_drop_rate_grows_with_payload(table):
    """Drop rates rise with payload size."""
    medians = table.column("median")
    assert medians[1] > medians[0]


@claim("Figure 3", fig03.run_size_sweep)
def fig03a_message_size_sweep(table):
    """SR peaks in the 128 MiB-1 GiB critical region; above 32 GiB SR wins."""
    sr, ec = _slowdowns(table, "size_B")
    assert sr[1 * GiB] > 2.0
    assert ec[128 * MiB] < 1.1
    assert ec[1 * GiB] < 1.3
    # Above ~32 GiB injection dominates: SR recovers, EC pays ~25% parity.
    assert sr[256 * GiB] < 1.05
    assert 1.2 < ec[256 * GiB] < 1.3
    assert ec[1 * GiB] < sr[1 * GiB]
    assert sr[256 * GiB] < ec[256 * GiB]
    assert sr[4 * KiB] < 1.05 and ec[4 * KiB] < 1.05


@claim("Figure 3", fig03.run_distance_sweep)
def fig03b_distance_sweep(table):
    """An 8 GiB write: SR wins on a short link, EC on a planetary one."""
    sr, ec = _slowdowns(table, "distance_km")
    assert sr[10.0] < ec[10.0]
    assert ec[37500.0] < sr[37500.0]
    assert table.column("sr_slowdown") == sorted(table.column("sr_slowdown"))


@claim("Figure 3", fig03.run_drop_sweep)
def fig03c_drop_sweep(table):
    """SR completion rises 3x..10x beyond 1e-4; EC(32,8) holds until ~1e-2."""
    sr, ec = _slowdowns(table, "p_packet")
    assert sr[1e-4] > 3.0
    assert sr[1e-2] > 8.0
    assert ec[1e-3] < 1.1
    assert ec[1e-2] > 5.0


@claim(
    "Figure 3", fig03.run_size_sweep, slow=False,
    sizes=[1 * MiB, 128 * MiB, 32 * GiB], p_packet=1e-5,
)
def fig03_size_sweep_columns(table):
    """EC is near ideal at 128 MiB where SR suffers; SR wins at 32 GiB."""
    sr, ec = table.column("sr_slowdown"), table.column("ec_slowdown")
    assert sr[1] > ec[1]
    assert sr[2] < ec[2]


@claim("Figure 3", fig03.run_distance_sweep, distances_km=[10.0, 37500.0], slow=False)
def fig03_distance_sweep_reverses_winner(table):
    """SR wins on a short link (8 GiB is large there), EC on a planetary one."""
    sr, ec = table.column("sr_slowdown"), table.column("ec_slowdown")
    assert sr[0] < ec[0]
    assert sr[1] > ec[1]


@claim("Figure 3", fig03.run_drop_sweep, drops=[1e-7, 1e-5, 1e-3], slow=False)
def fig03_drop_sweep_monotone_sr(table):
    """SR's slowdown grows with the drop rate."""
    sr = table.column("sr_slowdown")
    assert sr == sorted(sr)


@claim("Figure 9", fig09.run)
def fig09_heatmap(table):
    """EC(32,8) is ahead for 128 KiB-1 GiB x 1e-6..1e-2, by up to ~5x."""
    at = _cells(table)
    for size in (128 * KiB, 1 * MiB, 128 * MiB, 1 * GiB):
        assert at[size]["p=0.001"] >= 1.0, size
    assert at[128 * MiB]["p=0.0001"] > 2.5
    assert at[128 * MiB]["p=0.001"] > 3.0
    # SR's corners: large message + low drop, and drop rates so high that
    # EC cannot recover.
    assert at[8 * GiB]["p=1e-08"] < 1.0
    assert at[128 * MiB]["p=0.1"] < 1.0
    assert abs(at[16 * KiB]["p=1e-05"] - 1.0) < 0.1


@claim("Figure 9", lambda: (fig09.run(codec="xor"), fig09.run(codec="mds")))
def fig09_xor_variant(tables):
    """XOR's one-loss-per-group tolerance shrinks the red region at high drop."""
    xor, mds = map(_cells, tables)
    for size in (64 * MiB, 128 * MiB, 512 * MiB):
        assert xor[size]["p=0.001"] < mds[size]["p=0.001"]
    # At low drop rates the codes behave identically (no decoding needed).
    assert tables[0].column("p=1e-06") == tables[1].column("p=1e-06")


@claim(
    "Figure 9",
    lambda: (fig09.run(codec="rs2d", k=16, m=8), fig09.run(codec="mds", k=16, m=8)),
)
def fig09_rs2d_variant(tables):
    """RS2D(16,8), a 4x4 grid with one RS parity per row and per column, has
    MDS(16,8)'s overhead but only peels: between MDS and SR mid-region."""
    rs2d, mds = map(_cells, tables)
    for size, cols in rs2d.items():
        for col, speedup in cols.items():
            # Peeling can never beat the same-overhead MDS bound.
            assert speedup <= mds[size][col] + 1e-9, (size, col)
    assert tables[0].column("p=1e-06") == tables[1].column("p=1e-06")
    assert rs2d[128 * MiB]["p=0.001"] > 3.0
    # At percent-scale drop its non-peelable patterns cost it real ground.
    assert rs2d[128 * MiB]["p=0.01"] < 0.6 * mds[128 * MiB]["p=0.01"]


@claim(
    "Figure 9", fig09.run, slow=False,
    sizes=[128 * MiB, 8 * GiB], drops=[1e-8, 1e-4],
)
def fig09_red_region_and_sr_region(table):
    """128 MiB at 1e-4 is in EC's red region; 8 GiB at 1e-8 is SR's."""
    rows = {row[0]: row[1:] for row in table.rows}
    assert rows[128 * MiB][1] > 2.0
    assert rows[8 * GiB][0] < 1.0


@claim("Figure 10", fig10.run_size_sweep, n_samples=4000)
def fig10a_size_sweep(table):
    """SR slows up to 6.5x mean / 12.2x p99.9 in the critical region (ours
    peaks in the hundreds-of-MiB band); EC stays near ideal; NACK helps."""
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    assert max(r["sr_rto_mean"] for r in rows) > 2.0
    assert max(r["sr_rto_p999"] for r in rows) > 3.5
    assert all(r["ec_mean"] < 1.3 for r in rows)
    assert all(r["sr_nack_mean"] <= r["sr_rto_mean"] + 1e-9 for r in rows)


@claim("Figure 10", fig10.run_drop_sweep, n_samples=4000)
def fig10bc_drop_sweep(table):
    """SR slows 3x..10x+ from 1e-4 up, tails worse; NACK cuts the tail ~4x."""
    at = _cells(table)
    assert at[1e-4]["sr_rto_mean"] > 3.0
    assert at[1e-2]["sr_rto_mean"] > 8.0
    assert at[1e-3]["sr_rto_p999"] > at[1e-3]["sr_rto_mean"]
    assert at[1e-3]["sr_rto_p999"] / at[1e-3]["sr_nack_p999"] > 1.8
    assert at[1e-3]["ec_mean"] < 1.1
    assert at[1e-2]["ec_mean"] > 5.0


@claim("Figure 10", fig10.run_split_sweep, n_samples=2000)
def fig10d_mds_splits(table):
    """Lower data-to-parity ratios protect better; (32,8) is the balanced pick."""
    at = _cells(table)
    # Low drop: cost ordered by parity overhead, nothing needs recovering.
    assert at[1e-6]["k=32,m=2"] < at[1e-6]["k=32,m=8"]
    assert at[1e-6]["k=32,m=8"] < at[1e-6]["k=8,m=8"]
    assert at[1e-2]["k=8,m=8"] < at[1e-2]["k=32,m=2"] / 3
    assert at[1e-3]["k=32,m=8"] < 1.1


@claim(
    "Figure 10", fig10.run_drop_sweep, slow=False,
    drops=[1e-4], size=128 * MiB, n_samples=800, seed=0,
)
def fig10_nack_improves_on_rto(table):
    """NACK improves on RTO, and EC on both."""
    row = dict(zip(table.columns, table.rows[0]))
    assert row["sr_nack_mean"] < row["sr_rto_mean"]
    assert row["ec_mean"] < row["sr_nack_mean"]


@claim(
    "Figure 10", fig10.run_drop_sweep, slow=False,
    drops=[1e-4], size=128 * MiB, n_samples=800, seed=1,
)
def fig10_tail_exceeds_mean(table):
    """SR's p99.9 completion is at least its mean."""
    row = dict(zip(table.columns, table.rows[0]))
    assert row["sr_rto_p999"] >= row["sr_rto_mean"]


@claim(
    "Figure 10", fig10.run_split_sweep, slow=False,
    splits=[(32, 2), (8, 8)], drops=[1e-2], n_samples=500, seed=2,
)
def fig10_split_sweep_orders_by_protection(table):
    """At 1e-2 the weakly-protected (32,2) split collapses while (8,8) holds."""
    assert table.rows[0][1] > table.rows[0][2]


@claim("Figure 11", fig11.run_throughput)
def fig11_encode_throughput(table):
    """XOR needs fewer cores than MDS to hide encoding behind 400 Gbit/s."""
    rows = {r[0]: r[1:] for r in table.rows}
    (xor_bps, xor_cores), (mds_bps, mds_cores) = rows["xor"], rows["mds"]
    # Paper: 4 vs 8 cores with SIMD kernels; NumPy exaggerates the gap
    # (see DESIGN.md).
    assert xor_bps > 2 * mds_bps
    assert xor_cores < mds_cores
    assert xor_cores <= 8


@claim("Figure 11", fig11.run_fallback)
def fig11_fallback_probability(table):
    """With a 128 MiB buffer XOR falls back at ~1e-3; MDS holds beyond 1e-2."""
    drops = table.column("p_packet")
    mds = dict(zip(drops, table.column("mds_fallback")))
    xor = dict(zip(drops, table.column("xor_fallback")))
    assert xor[1e-3] > 0.5
    assert mds[1e-3] < 0.01
    assert mds[1e-4] < 1e-6
    assert xor[1e-2] > 0.99
    assert mds[5e-2] > 0.99


@claim(
    "Figure 11",
    lambda: get_codec("mds", 32, 8).encode(
        np.random.default_rng(0).integers(0, 256, (32, 64 * KiB), dtype=np.uint8)
    ),
)
def fig11_codec_throughput_raw(parity):
    """The MDS(32,8) encode hot loop; ``bench/kernels.py ec.`` times it."""
    assert parity.shape == (8, 64 * KiB)


@claim("Figure 11", fig11.run_throughput, k=8, m=4, chunk_bytes=16 * KiB, slow=False)
def fig11_xor_encodes_faster_than_mds(table):
    """XOR encodes faster than MDS and needs no more cores."""
    rows = {r[0]: r[1:] for r in table.rows}
    assert rows["xor"][0] > rows["mds"][0]
    assert rows["xor"][1] <= rows["mds"][1]


@claim("Figure 11", fig11.run_fallback, drops=[1e-4, 1e-3], slow=False)
def fig11_xor_falls_back_before_mds(table):
    """XOR falls back to SR before MDS does."""
    mds, xor = table.column("mds_fallback"), table.column("xor_fallback")
    assert all(x >= m for x, m in zip(xor, mds))
    assert xor[1] > 0.5
    assert mds[1] < 0.1


@claim("Figure 12", fig12.run)
def fig12_distance_bandwidth_sweep(table):
    """SR grows with distance at every bandwidth (more exposed retransmissions
    as the BDP grows), EC shrinks toward ideal and wins at the far end."""
    for bw in ("100", "400", "1600"):
        sr, ec = table.column(f"sr@{bw}G"), table.column(f"ec@{bw}G")
        assert sr == sorted(sr)
        assert ec == sorted(ec, reverse=True)
        assert ec[-1] < sr[-1]
    # At short distance EC pays its parity tax and loses.
    assert table.column("ec@400G")[0] > table.column("sr@400G")[0]


@claim(
    "Figure 12",
    lambda: {
        bw: fig12.crossover_distance(bandwidth_bps=bw)
        for bw in (100 * Gbit, 400 * Gbit, 800 * Gbit, 1.6 * Tbit)
    },
)
def fig12_crossover_shrinks_with_bandwidth(crossovers):
    """Fatter pipes move the EC-wins crossover closer."""
    values = list(crossovers.values())
    assert all(v is not None for v in values)
    assert values == sorted(values, reverse=True) or len(set(values)) < 4
    assert crossovers[1.6 * Tbit] <= crossovers[100 * Gbit]


@claim(
    "Figure 12",
    lambda: [fig12.crossover_distance(bandwidth_bps=bw) for bw in (100e9, 1.6e12)],
    slow=False,
)
def fig12_crossover_distance_shrinks_with_bandwidth(crossovers):
    """The EC-wins crossover distance shrinks with bandwidth."""
    slow, fast = crossovers
    assert slow is not None and fast is not None
    assert fast <= slow


@claim(
    "Figure 12", fig12.run, slow=False,
    distances_km=[10.0, 37500.0], bandwidths_bps=[400e9],
)
def fig12_table_shape(table):
    """SR's slowdown grows with distance."""
    assert table.column("sr@400G")[1] > table.column("sr@400G")[0]


@claim("Figure 13", fig13.run_ring_sweep, n_samples=2000, seed=0)
def fig13_left_ring_size_sweep(table):
    """EC's ring Allreduce p99.9 speedup grows with drop rate, 3x to >6x."""
    for n in (2, 4, 8, 16):
        series = table.column(f"N={n}")
        assert all(s > 1.0 for s in series)
        assert series[-1] > series[0]
    assert max(_cells(table)[1e-3].values()) > 3.0


@claim("Figure 13", fig13.run_buffer_sweep, n_samples=2000, seed=1)
def fig13_right_buffer_sweep(table):
    """The speedup grows with buffer size, beyond 3x at 1e-3 for 4 DCs."""
    for col in table.columns[1:]:
        series = table.column(col)
        assert all(s > 1.0 for s in series)
        assert series[-1] > series[0]
    assert all(v > 3.0 for v in table.rows[-1][1:])


@claim(
    "Figure 13", fig13.run_ring_sweep, slow=False,
    ring_sizes=[4], drops=[1e-6, 1e-3], n_samples=400, seed=0,
)
def fig13_speedup_grows_with_drop(table):
    """EC's speedup exceeds 1 and grows with drop rate."""
    speedups = table.column("N=4")
    assert speedups[1] > speedups[0]
    assert all(s > 1.0 for s in speedups)


@claim("Figure 14", fig14.run_message_size_sweep, n_messages=20)
def fig14_left_message_size_sweep(table):
    """SDR trails RC below 512 KiB (receive repost overhead) and saturates the
    line from 512 KiB up."""
    at = _cells(table)
    for size in (64 * KiB, 128 * KiB, 256 * KiB):
        assert at[size]["sdr_gbps"] < at[size]["rc_gbps"]
    for size in (512 * KiB, 1 * MiB, 4 * MiB, 16 * MiB):
        assert at[size]["sdr_frac_of_line"] >= 0.9, size
    assert table.column("sdr_gbps") == sorted(table.column("sdr_gbps"))


@claim(
    "Figure 14", fig14.run_thread_scaling,
    threads=[1, 2, 4, 8, 16], message_bytes=8 * MiB, n_messages=10,
)
def fig14_right_thread_scaling(table):
    """DPA threads scale near-linearly; 16 threads saturate 400 Gbit/s."""
    gbps = table.column("sdr_gbps")
    assert gbps == sorted(gbps)
    for lo, hi in zip(gbps, gbps[1:]):
        if hi < 0.9 * 400:  # below saturation doubling threads ~doubles rate
            assert hi > 1.6 * lo
    assert gbps[-1] >= 0.95 * 400


@claim(
    "Figure 14", fig14.run_message_size_sweep, slow=False,
    sizes=[64 * KiB, 512 * KiB], n_messages=6,
)
def fig14_size_sweep_small(table):
    """SDR trails RC at 64 KiB and nears the line at 512 KiB."""
    sdr, rc = table.column("sdr_gbps"), table.column("rc_gbps")
    assert sdr[0] < rc[0]
    # Pipeline warm-up in 6 messages keeps this below full size's 95%.
    assert sdr[1] > 0.7 * 400


@claim(
    "Figure 14", fig14.run_thread_scaling, slow=False,
    threads=[2, 8], message_bytes=2 * MiB, n_messages=4,
)
def fig14_thread_scaling_small(table):
    """Four times the DPA threads give more than twice the throughput."""
    gbps = table.column("sdr_gbps")
    assert gbps[1] > 2 * gbps[0]


@claim("Figure 15", fig15.run, n_messages=12)
def fig15_chunk_size_sweep(table):
    """16 DPA threads hold the line at any chunk size (per-packet CQE load is
    constant); host bitmap updates fall linearly; P_chunk grows ~N * P."""
    ppc, p_chunk = table.column("pkts_per_chunk"), table.column("p_chunk_drop")
    updates = table.column("chunk_updates")
    assert all(f >= 0.9 for f in table.column("frac_of_line"))
    assert updates == sorted(updates, reverse=True)
    assert updates[0] == updates[-1] * (ppc[-1] // ppc[0])
    for n, pc in zip(ppc, p_chunk):  # the table rounds to 8 decimals
        assert math.isclose(pc, 1 - (1 - 1e-5) ** n, rel_tol=1e-2)
    assert p_chunk == sorted(p_chunk)


@claim(
    "Figure 15", fig15.run, slow=False,
    chunk_sizes=[4 * KiB, 64 * KiB], message_bytes=1 * MiB, n_messages=4,
)
def fig15_chunk_sweep_small(table):
    """Near line rate at 4 and 64 KiB chunks; the chunk drop probability grows."""
    assert all(f > 0.8 for f in table.column("frac_of_line"))
    p_chunk = table.column("p_chunk_drop")
    assert p_chunk[1] > p_chunk[0]


@claim("Figure 16", fig16.run, n_messages=10)
def fig16_packet_rate_scaling(table):
    """Packet rate scales near-linearly to 128 threads, ~3.2 Tbit/s at 4 KiB."""
    mpps = table.column("pkt_rate_mpps")
    assert mpps == sorted(mpps)
    for lo, hi in zip(mpps, mpps[1:]):
        assert hi > 1.6 * lo  # doubling threads buys >= 1.6x
    # Calibration anchor: ~15 Mpps at 16 threads (paper Section 5.4.2).
    assert 11.0 <= dict(zip(table.column("threads"), mpps))[16] <= 17.0
    assert table.column("equiv_tbps_at_4KiB")[-1] > 2.8


@claim(
    "Figure 16", fig16.run, slow=False,
    threads=[4, 16], message_bytes=32 * KiB, n_messages=6,
)
def fig16_packet_rate_scaling_small(table):
    """Four times the threads give more than 2.5x the packet rate."""
    mpps = table.column("pkt_rate_mpps")
    assert mpps[1] > 2.5 * mpps[0]


SDR_8K = SdrConfig(chunk_bytes=8 * KiB, max_message_bytes=4 * MiB, channels=4)


def _wan(drop=0.0, km=100.0, **knobs):
    """A 100 Gbit/s link of ``km`` at ``drop``."""
    return ChannelConfig(
        bandwidth_bps=100e9, distance_km=km, drop_probability=drop, **knobs
    )


def _mean_write(scheme, size, drop, seeds, config=None, km=100.0):
    """Mean retransmitted chunks and seconds of one write per seed."""
    retx = seconds = 0.0
    for seed in seeds:
        pair = build_pair(_wan(drop, km), SDR_8K, seed=seed)
        sender, receiver = endpoints(scheme, pair, config)
        if scheme == "gbn":
            sender.window_chunks = 64
        receiver.post_receive(pair.ctx_b.mr_reg(size), size)
        ticket = sender.write(size)
        pair.sim.run(ticket.done)
        retx += ticket.retransmitted_chunks / len(seeds)
        seconds += ticket.completion_time / len(seeds)
    return retx, seconds


@claim(
    "§4.1.1",
    lambda: [
        _mean_write(
            "sr", 4 * MiB, 0.01, (51, 52, 53),
            SrConfig(nack_enabled=False, ack_window_bytes=window), km=500.0,
        )
        for window in (4, 16, 64, 512)
    ],
)
def ablation_selective_ack_window(runs):
    """The selective ACK ships as much of the bitmap as fits: a window too
    small to reach past a loss starves the sender (4 MiB, 512 chunks, 1%)."""
    retx = [round(r, 1) for r, _ in runs]
    ms = [round(s * 1e3, 2) for _, s in runs]
    # Ample windows (512 B = 4096 chunks) retransmit only real losses;
    # starved windows (4 B = 32 chunks) trigger spurious RTO retransmits.
    assert retx[0] > 2 * retx[-1]
    assert retx == sorted(retx, reverse=True) or retx[0] > retx[-1]
    assert ms[-1] <= ms[0] + 1e-9


def _adaptive(policy, drop, seed, ec=EcConfig(codec="mds", k=8, m=4)):
    """Mean ms of six 512 KiB writes under ``policy``, and its choices."""
    sdr = dataclasses.replace(SDR_8K, inflight_messages=64)
    pair = build_pair(_wan(drop), sdr, seed=seed)
    knobs = {"sr": {}, "ec": {"config": ec}, "adaptive": {"ec_config": ec}}[policy]
    sender, receiver = endpoints(policy, pair, **knobs)
    if policy == "adaptive":
        receiver.estimator = DropRateEstimator(initial=1e-6, alpha=0.5)
    mr, total = pair.ctx_b.mr_reg(512 * KiB), 0.0
    for _ in range(6):
        receiver.post_receive(mr, 512 * KiB)
        ticket = sender.write(512 * KiB)
        pair.sim.run(ticket.done)
        total += ticket.completion_time
    history = receiver.protocol_history if policy == "adaptive" else [policy] * 6
    return round(total / 6 * 1e3, 3), history


@claim(
    "§2.1",
    lambda: {
        link: {p: _adaptive(p, drop, seed) for p in ("sr", "ec", "adaptive")}
        for link, drop, seed in (("clean", 0.0, 41), ("lossy", 0.03, 43))
    },
)
def ablation_adaptive_provisioning(links):
    """Per-connection provisioning tracks the best static protocol per link."""
    clean, lossy = links["clean"], links["lossy"]
    # Clean link: adaptive sticks with SR (no parity tax) and matches it.
    assert set(clean["adaptive"][1]) == {"sr"}
    assert clean["adaptive"][0] <= clean["ec"][0] * 1.05
    # Lossy link: adaptive migrates to EC and lands near the better static.
    assert "ec" in lossy["adaptive"][1]
    assert lossy["adaptive"][0] <= min(lossy["sr"][0], lossy["ec"][0]) * 1.6


def _burst_masking():
    """Per chunk size: iid, bursty and analytic chunk drop rates, and the gain."""
    rng = np.random.default_rng(0)
    ge = GilbertElliottLoss(p_good=0.0, p_bad=0.5, p_gb=2e-4, p_bg=0.05)
    sizes = np.full(400_000, 4096)
    ge_mask = ge.drop_mask(rng, sizes)
    iid_mask = BernoulliLoss(ge.average_loss_rate).drop_mask(rng, sizes)
    rows = []
    for n in (1, 2, 4, 8, 16, 32, 64):
        # The fraction of chunks with at least one lost packet.
        bursty, iid = (
            m[: len(m) // n * n].reshape(-1, n).any(axis=1).mean()
            for m in (ge_mask, iid_mask)
        )
        analytic = ge_chunk_drop_probability(
            n, p_good=ge.p_good, p_bad=ge.p_bad, p_gb=ge.p_gb, p_bg=ge.p_bg
        )
        gain = round(iid / max(bursty, 1e-12), 2)
        rows.append((round(iid, 5), round(bursty, 5), round(analytic, 5), gain))
    return rows


@claim("§3.1.1", _burst_masking)
def ablation_chunk_size_masks_bursts(rows):
    """Larger chunks mask drop bursts: at equal average loss, bursty chunk
    losses grow far slower with chunk size than 1-(1-p)^N."""
    iid, bursty, analytic, gains = zip(*rows)
    # The 2x2 matrix-product closed form tracks the empirical rates.
    for emp, ana in zip(bursty, analytic):
        assert abs(emp - ana) <= max(0.25 * ana, 5e-4)
    # Single-packet chunks: iid and bursty agree (same average rate).
    assert abs(gains[0] - 1.0) < 0.25
    assert gains[-1] > 2.0
    assert gains[-1] > gains[0]
    assert iid[-1] / iid[0] > 25  # ~64x for N=64
    assert bursty[-1] / bursty[0] < iid[-1] / iid[0]


def _survival(jitter, length, total=2 * MiB):
    """Completed / sent ``length``-byte UC Writes on a jittery lossless path."""
    pair = build_pair(_wan(km=200.0, jitter_fraction=jitter), seed=7, names=("a", "b"))
    qa, qb = (
        UcQp(dev, send_cq=CompletionQueue(pair.sim), recv_cq=CompletionQueue(pair.sim))
        for dev in (pair.dev_a, pair.dev_b)
    )
    qa.connect(qb.info())
    qb.connect(qa.info())
    mr = MemoryRegion(total)
    pair.dev_b.reg_mr(mr)
    for i in range(total // length):
        wr = SendWr(length=length, rkey=mr.rkey, remote_offset=i * length, immediate=i)
        qa.post_send(wr)
    pair.sim.run()
    return round(len(qb.recv_cq.poll(100_000)) / (total // length), 4)


@claim(
    "§3.2.1",
    lambda: [
        (_survival(jitter, 64 * KiB), _survival(jitter, 4 * KiB))
        for jitter in (0.0, 0.5, 2.0, 5.0)
    ],
)
def ablation_per_packet_vs_chunk_writes(rows):
    """UC's ePSN check kills chunk-sized Writes under reordering; one Write
    per packet survives any jitter."""
    chunk_rates, pp_rates = zip(*rows)
    assert all(r == 1.0 for r in pp_rates)
    assert chunk_rates[0] == 1.0
    assert chunk_rates[-1] < 0.5
    assert list(chunk_rates) == sorted(chunk_rates, reverse=True)


@claim(
    "§4",
    lambda: [
        [_mean_write(scheme, 1 * MiB, drop, (31, 32, 33)) for scheme in ("sr", "gbn")]
        for drop in (0.01, 0.05)
    ],
)
def ablation_sr_vs_gbn(runs):
    """SR's efficiency is at least as good as Go-Back-N's."""
    for (sr_retx, sr_s), (gbn_retx, gbn_s) in runs:
        # GBN retransmits strictly more data for the same drops...
        assert round(gbn_retx, 1) > round(sr_retx, 1)
        # ...and is never meaningfully faster.
        assert round(sr_s * 1e3, 3) <= round(gbn_s * 1e3, 3) * 1.05


def _staged_gbps(copy_bps, size=2 * MiB, n=6):
    """Goodput of ``n`` preposted receives at 400 Gbit/s: on the zero-copy
    UC backend if ``copy_bps`` is None, else staged through a host copy."""
    channel = ChannelConfig(bandwidth_bps=400e9, distance_km=0.1, mtu_bytes=4 * KiB)
    link = build_link(channel, names=("a", "b"))
    cfg = SdrConfig(chunk_bytes=64 * KiB, max_message_bytes=size, channels=16)
    ctx_a = context_create(link.dev_a, sdr_config=cfg)
    ctx_b = context_create(link.dev_b, sdr_config=cfg)
    qa = ctx_a.qp_create()
    if copy_bps is None:
        qb = ctx_b.qp_create()
    else:
        qb = StagedSdrQp(ctx_b, cfg, copy_bps=copy_bps)
        ctx_b.qps.append(qb)
    qa.connect(qb.info_get())
    qb.connect(qa.info_get())
    mr, handles = ctx_b.mr_reg(size), []
    # The server preposts the whole pipeline in the first dispatch at t = 0,
    # after the sends, so CTS/repost latency is off the path.
    link.sim.call_in(0.0, lambda: handles.extend(
        qb.recv_post(SdrRecvWr(mr=mr, length=size)) for _ in range(n)
    ))
    for _ in range(n):
        qa.send_post(SdrSendWr(length=size))
    link.sim.run(until=0.0)
    for rh in handles:
        link.sim.run(rh.wait_all_chunks())
        rh.complete()
    return round(size * n * 8 / link.sim.now / 1e9, 1)


@claim("§2.3", lambda: {c: _staged_gbps(c) for c in (None, 800e9, 200e9, 100e9)})
def ablation_staging_backend(gbps):
    """UD's out-of-order handling needs intermediate staging; the zero-copy
    UC backend rides the 400 Gbit/s wire."""
    assert gbps[None] > 0.85 * 400
    # An over-provisioned copier keeps up...
    assert gbps[800e9] > 0.8 * gbps[None]
    # ...but an under-provisioned one caps goodput near its bandwidth.
    assert gbps[100e9] < 120
    assert gbps[100e9] < gbps[200e9] < gbps[800e9] + 1e-9


def _des_over_model(size, drop):
    """Mean DES SR completion over the analytic model's, 100 Gbit/s x 100 km."""
    params = ModelParams.from_channel(_wan(drop), chunk_bytes=8 * KiB)
    model = sr_expected_completion(params, params.chunks_in(size))
    _, des = _mean_write("sr", size, drop, (61, 62, 63), SrConfig(nack_enabled=False))
    return drop, round(des / model, 3)


@claim(
    "§5.1.1",
    lambda: [_des_over_model(s, p) for s in (512 * KiB, 2 * MiB) for p in (0.0, 5e-3)],
)
def validation_des_vs_model(rows):
    """The packet-level DES tracks the analytic SR model within protocol
    overhead factors (CTS, ACK cadence, repost)."""
    assert all(0.6 <= r <= 2.5 for _, r in rows)
    # Lossless points are tight (overheads only).
    assert all(r <= 1.8 for drop, r in rows if drop == 0.0)


def _chaos(schedule):
    rerouted = chaos_scenario(ChaosConfig(schedule=schedule))
    static = chaos_scenario(ChaosConfig(schedule=schedule, health=False))
    return schedule, rerouted, static


@claim("docs/robustness.md", _chaos, params=("tor_crash", "wan_flap"))
def fabric_chaos_survival(runs):
    """Health-driven rerouting carries >= 99% of messages through one fault;
    static routing is the counterfactual."""
    schedule, rerouted, static = runs
    assert rerouted.survival >= 0.99
    assert rerouted.delivery_errors == 0
    assert rerouted.reroute["path_changes"] > 0
    if schedule == "tor_crash":
        # Permanent fault: static routing loses every affected flow.
        assert static.survival < 0.99
        assert static.survival < rerouted.survival
    else:
        # Transient flap: static routing survives by stalling through
        # both blackouts; detours must drain at least 2x faster.
        assert static.drained_at >= 2.0 * rerouted.drained_at


@claim("docs/robustness.md", chaos_scenario, ChaosConfig(schedule="fabric_partition"))
def fabric_chaos_partition_fails_cleanly(result):
    """A full core partition is exempt from the survival gate; every loss
    ends in a clean DeliveryError, no wedges."""
    assert result.delivery_errors > 0
    assert result.failed == result.delivery_errors
    assert result.completed + result.failed == result.messages


def _fairness(cc):
    config = smoke_config(cc=cc)
    off = dataclasses.replace(config, enforce_quotas=False)
    return fairness_scenario(config), fairness_scenario(off)


@claim("docs/fabric.md", _fairness, params=("swift", "dcqcn"))
def fabric_fairness(runs):
    """With quotas a victim keeps >= 50% of its solo goodput beside a rogue
    at 2x the bottleneck, whichever controller paces it."""
    enforced, collapsed = runs
    assert enforced.retention >= 0.5
    # The bar is meaningful: without enforcement the rogue wins.
    assert collapsed.retention < enforced.retention
    assert collapsed.retention < 0.5
    for report in enforced.reports:
        assert report.p99_s >= report.p50_s > 0


@claim(
    "docs/fabric.md",
    lambda: (scale_scenario(ScaleConfig()), scale_scenario(ScaleConfig())),
)
def fabric_scale_completes_deterministically(runs):
    """1000 tenants, >= 100k messages: every flow resolves, and the same seed
    gives a byte-identical ``fabric.*`` snapshot digest."""
    first, second = runs
    assert first.messages >= 100_000
    assert first.completed + first.failed == first.messages
    assert first.completed > 0.99 * first.messages
    assert first.drained_at >= ScaleConfig().duration
    assert first.digest == second.digest
    assert first.messages == second.messages


#: The pinned bulk-heavy mix: 200 tenants, 8 MiB mean over the two-tier WAN.
BULK_MIX = ScaleConfig(
    tenants=200,
    duration=0.02,
    offered_load_bps=120e9,
    tors=4,
    hosts_per_tor=4,
    mean_message_bytes=8 * MiB,
    max_message_bytes=32 * MiB,
)


@claim(
    "docs/fabric.md",
    lambda: [
        _timed(scale_scenario, dataclasses.replace(BULK_MIX, fluid=fluid))
        for fluid in (False, True, True)
    ],
)
def fabric_scale_fluid_speedup(runs):
    """The fluid fast path runs >= 5x faster than packet mode, goodput within
    1%, no spurious retransmits, and same seed, same digest."""
    (pkt, t_pkt), (first, t_fl), (second, _) = runs
    goodput = [sum(r.goodput_bps for r in res.reports) for res in (pkt, first)]
    speedup, delta = t_pkt / t_fl, abs(goodput[1] - goodput[0]) / goodput[0] * 100.0
    assert first.completed == pkt.completed
    assert first.failed == pkt.failed == 0
    assert sum(r.retransmits for r in first.reports) == 0
    assert first.digest == second.digest
    assert speedup >= 5.0, f"fluid speedup {speedup:.1f}x below 5x gate"
    assert delta <= 1.0, f"goodput delta {delta:.3f}% exceeds 1%"


@claim(
    "docs/congestion.md",
    lambda: {
        cc: round(run_incast(cc=cc, senders=8, duration=0.03).goodput_gbps, 3)
        for cc in ("none", "swift", "dcqcn")
    },
)
def incast_cc_recovery(goodput):
    """Unpaced, 8 senders into one small-buffer 10 Gbit/s bottleneck collapse;
    Swift and DCQCN recover goodput by >= 2x."""
    # The actual margin is orders of magnitude, but 2x is the gate.
    assert goodput["swift"] >= 2 * goodput["none"]
    assert goodput["dcqcn"] >= 2 * goodput["none"]
    # The controllers should be within sight of the bottleneck rate.
    assert goodput["swift"] > 3.0
    assert goodput["dcqcn"] > 3.0


#: WAN-tuned sampling config: in a bandwidth-constrained regime a repair
#: retransmission can sit queued behind the tail of the injection for
#: several RTTs, so the probe cadence and the per-chunk repair holdoff
#: must stretch accordingly or the receiver re-requests chunks that are
#: already on the wire.
WAN_SAMPLING = SamplingConfig(
    sample_interval_rtts=4.0,
    repair_holdoff_rtts=8.0,
    max_message_retransmits=4000,
    serve_deadline_rtts=4000.0,
)
#: Each transfer spans many RTTs, so SR's ACK cadence accumulates.
WAN_RUN = dict(
    messages=2, message_bytes=32 * MiB, bandwidth_bps=1e9, distance_km=1000.0, seed=0
)


def _sampling_vs_sr(drop):
    """Sampling's control bytes over SR's, and the messages each delivered."""
    sr = run_demo(protocol="sr", drop=drop, **WAN_RUN)
    smp = run_demo(
        protocol="sampling", drop=drop, sampling_config=WAN_SAMPLING, **WAN_RUN
    )
    ctrl = [r.ctrl_a.bytes_sent + r.ctrl_b.bytes_sent for r in (sr, smp)]
    delivered = [WAN_RUN["messages"] - r.failed_writes for r in (sr, smp)]
    return ctrl[1] / ctrl[0], delivered


@claim("docs/protocols.md", lambda: [_sampling_vs_sr(p) for p in (0.001, 0.01, 0.02)])
def sampling_ack_traffic(rows):
    """Over Fig 2's loss band sampling spends <= 25% of SR's control bytes
    for the same delivered payload."""
    for ratio, (sr_delivered, sampling_delivered) in rows:
        # >= 99% delivery on the WAN loss sweep (here: no failed writes).
        assert sr_delivered == WAN_RUN["messages"]
        assert sampling_delivered == WAN_RUN["messages"]
        assert ratio <= 0.25, ratio
    # The advantage grows with loss: SR NACK/re-ACK traffic scales with
    # drops, sampling repair requests stay batched per segment.
    assert rows[-1][0] <= rows[0][0]


@claim(
    "docs/protocols.md", run_demo,
    protocol="sampling", drop=0.01, sampling_config=WAN_SAMPLING, recover=True,
    faults=named_schedule("blackout", rtt=distance_to_rtt(1000.0)), **WAN_RUN,
)
def sampling_survives_fault_window(result):
    """Under a blackout window sampling still lands every byte: the idle
    watchdog and the resumption backstop are the safety net."""
    assert WAN_RUN["messages"] - result.failed_writes == WAN_RUN["messages"]


def _probe_misses(gap, probes, segment=64, trials=4000):
    """Analytic and Monte-Carlo odds that a round's probes all miss a ``gap``."""
    rng = RngStreams(0).get(f"detect.{gap}.{probes}")
    misses = 0
    for _ in range(trials):
        missing = rng.choice(segment, size=gap, replace=False)
        misses += not np.isin(draw_probes(rng, segment, probes), missing).any()
    return gap, probes, miss_probability(segment, gap, probes), misses / trials


@claim(
    "docs/protocols.md",
    lambda: [
        _probe_misses(gap, probes)
        for gap, probes in (
            (2, 4), (2, 8), (2, 16), (4, 4), (4, 8), (4, 16),
            (8, 4), (8, 8), (8, 16), (16, 8), (16, 16),
        )  # analytic P_miss spans ~0.01 .. 0.9
    ],
)
def sampling_detection_tracks_bound(rows):
    """The measured probe miss rate tracks the hypergeometric bound the
    protocol's confidence math is built on within 2x."""
    for gap, probes, analytic, measured in rows:
        # Wherever the bound is measurable at 4000 trials.
        if analytic >= 0.01:
            assert 0.5 <= measured / analytic <= 2.0, (gap, probes, analytic, measured)
        else:
            assert measured <= max(2.0 * analytic, 5.0 / 4000)
    # More probes at a fixed gap means fewer misses.
    for gap in {row[0] for row in rows}:
        rates = [measured for g, _, _, measured in sorted(rows) if g == gap]
        assert rates == sorted(rates, reverse=True), gap


class _Plain:
    __slots__ = ("x",)

    def __init__(self):
        self.x = 0


def _telemetry_seconds(n=200_000):
    """Best of 3: bare ``+= 1``, disabled ``inc()``, SR runs with metrics on, off."""
    plain, counter = _Plain(), MetricsRegistry(enabled=False).counter("x")

    def bare():
        for _ in range(n):
            plain.x += 1

    def null():
        for _ in range(n):
            counter.inc()

    def demo(metrics):
        telemetry = Telemetry(metrics=metrics)
        run_demo(protocol="sr", messages=2, message_bytes=1 << 20, drop=0.01, seed=7,
                 telemetry=telemetry)

    runs = (bare,), (null,), (demo, True), (demo, False)
    return [min(_timed(*run)[1] for _ in range(3)) for run in runs]


@claim("docs/observability.md", _telemetry_seconds)
def disabled_telemetry_is_cheap(seconds):
    """A disabled instrument costs about a bare attribute add, and a run with
    metrics off is no slower than one with them on."""
    bare_s, null_s, on_s, off_s = seconds
    # Disabled inc() is one method call and one add; allow interpreter
    # dispatch overhead vs the bare in-place add but nothing asymptotic.
    assert null_s < 10 * bare_s
    # Generous slack: a guard against pathological regressions (e.g.
    # disabled counters doing dict lookups per inc), not benchmark noise.
    assert off_s < on_s * 1.20
