"""Ablation: Selective Repeat vs Go-Back-N on identical SDR substrate.

Section 4 of the paper picks SR because "it can be proven theoretically
that SR efficiency is at least as good as Go-back-N's".  This bench runs
both protocols over the same lossy link and shows GBN's window-rewind waste.
"""

from repro.common.config import ChannelConfig, SdrConfig
from repro.common.units import KiB, MiB
from repro.experiments.report import Table
from repro.stack import build_pair, endpoints

from conftest import run_once, show

SDR = SdrConfig(chunk_bytes=8 * KiB, max_message_bytes=4 * MiB, channels=4)


def _run(protocol: str, drop: float, seed: int, size: int):
    channel = ChannelConfig(
        bandwidth_bps=100e9, distance_km=100.0, drop_probability=drop
    )
    pair = build_pair(channel, SDR, seed=seed)
    sender, receiver = endpoints(protocol, pair)
    if protocol == "gbn":
        sender.window_chunks = 64
    mr = pair.ctx_b.mr_reg(size)
    receiver.post_receive(mr, size)
    ticket = sender.write(size)
    pair.sim.run(ticket.done)
    return ticket


def test_ablation_sr_vs_gbn(benchmark):
    size = 1 * MiB
    seeds = (31, 32, 33)

    def sweep():
        table = Table(
            title="Ablation: SR vs GBN over SDR (1 MiB, 100 Gbit/s, 100 km)",
            columns=["p_drop", "sr_ms", "sr_retx", "gbn_ms", "gbn_retx"],
        )
        for drop in (0.01, 0.05):
            sr_t = sr_r = gbn_t = gbn_r = 0.0
            for seed in seeds:
                t = _run("sr", drop, seed, size)
                sr_t += t.completion_time / len(seeds)
                sr_r += t.retransmitted_chunks / len(seeds)
                t = _run("gbn", drop, seed, size)
                gbn_t += t.completion_time / len(seeds)
                gbn_r += t.retransmitted_chunks / len(seeds)
            table.add_row(
                drop, round(sr_t * 1e3, 3), round(sr_r, 1),
                round(gbn_t * 1e3, 3), round(gbn_r, 1),
            )
        return table

    table = run_once(benchmark, sweep)
    show(table)
    for row in table.rows:
        _, sr_ms, sr_retx, gbn_ms, gbn_retx = row
        # GBN retransmits strictly more data than SR for the same drops...
        assert gbn_retx > sr_retx
        # ...and is never meaningfully faster.
        assert sr_ms <= gbn_ms * 1.05
