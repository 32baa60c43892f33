"""Ablation: selective-ACK window size (Section 4.1.1's "as much as fits").

The SR ACK ships the cumulative prefix plus a *window* of the receiver's
bitmap.  If the window is too small to reach the chunks in flight beyond a
loss, the sender cannot learn they arrived and retransmits them spuriously
on RTO -- exactly the information gap that separates SR from GBN.  This
bench shrinks the window from ample to starved and watches spurious
retransmissions grow.
"""

from repro.common.config import ChannelConfig, SdrConfig
from repro.common.units import KiB, MiB
from repro.experiments.report import Table
from repro.reliability.sr import SrConfig
from repro.stack import build_pair, endpoints

from conftest import run_once, show

SIZE = 4 * MiB  # 512 chunks of 8 KiB
DROP = 0.01
CHANNEL = ChannelConfig(
    bandwidth_bps=100e9, distance_km=500.0, drop_probability=DROP
)
SDR = SdrConfig(chunk_bytes=8 * KiB, max_message_bytes=4 * MiB, channels=4)


def _run(window_bytes: int, seed: int):
    pair = build_pair(CHANNEL, SDR, seed=seed)
    cfg = SrConfig(nack_enabled=False, ack_window_bytes=window_bytes)
    sender, receiver = endpoints("sr", pair, cfg)
    mr = pair.ctx_b.mr_reg(SIZE)
    receiver.post_receive(mr, SIZE)
    ticket = sender.write(SIZE)
    pair.sim.run(ticket.done)
    return ticket


def test_ablation_selective_ack_window(benchmark):
    def sweep():
        table = Table(
            title=(
                f"Ablation: selective-ACK window size "
                f"({SIZE >> 20} MiB, {DROP:.0%} drop, 512 chunks)"
            ),
            columns=["window_bytes", "window_chunks", "mean_retx", "mean_ms"],
            notes="small windows starve the sender of selective information",
        )
        seeds = (51, 52, 53)
        for window in (4, 16, 64, 512):
            retx = ms = 0.0
            for seed in seeds:
                t = _run(window, seed)
                retx += t.retransmitted_chunks / len(seeds)
                ms += t.completion_time * 1e3 / len(seeds)
            table.add_row(window, window * 8, round(retx, 1), round(ms, 2))
        return table

    table = run_once(benchmark, sweep)
    show(table)
    retx = table.column("mean_retx")
    # Ample windows (512 B = 4096 chunks) retransmit only real losses;
    # starved windows (4 B = 32 chunks) trigger spurious RTO retransmits.
    assert retx[0] > 2 * retx[-1]
    assert retx == sorted(retx, reverse=True) or retx[0] > retx[-1]
    ms = table.column("mean_ms")
    assert ms[-1] <= ms[0] + 1e-9
