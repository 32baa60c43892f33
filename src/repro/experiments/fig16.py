"""Figure 16: SDR packet-rate scaling towards Tbit/s links.

The paper stresses the receive path with 64-byte transport Writes (so the
wire can offer far more packets per second than any payload-rate limit) and
scales the DPA worker count from 4 to 128 threads, reaching packet rates
equivalent to ~3.2 Tbit/s at a 4 KiB MTU.

We reproduce the methodology: a 400 Gbit/s link carrying 64 B packets can
offer up to ~780 Mpps, so the receive DPA pool is always the bottleneck and
the measured packet rate is its drain rate.  The ``equiv_tbps`` column
converts the sustained packet rate to the bandwidth it would represent at a
4 KiB MTU -- the paper's metric.
"""

from __future__ import annotations

from repro.common.config import ChannelConfig, DpaConfig, SdrConfig
from repro.common.units import KiB
from repro.experiments.report import Table
from repro.experiments.testbed import run_sdr_throughput

DEFAULT_THREADS = [4, 8, 16, 32, 64, 128]
TINY_MTU = 64
REF_MTU = 4 * KiB


def run(
    *,
    threads: list[int] | None = None,
    message_bytes: int = 128 * KiB,
    n_messages: int = 12,
) -> Table:
    """Packet rate vs receive DPA threads with 64 B transport writes."""
    threads = threads if threads is not None else DEFAULT_THREADS
    channel = ChannelConfig(
        bandwidth_bps=400e9, distance_km=0.01, mtu_bytes=TINY_MTU
    )
    table = Table(
        title="Figure 16: packet-rate scaling vs DPA threads (64 B writes)",
        columns=["threads", "pkt_rate_mpps", "equiv_tbps_at_4KiB", "per_thread_mpps"],
        notes="equiv bandwidth = packet rate x 4 KiB x 8",
    )
    for n in threads:
        sdr = SdrConfig(
            chunk_bytes=64 * TINY_MTU,  # 64-packet chunks, as in Figure 15
            max_message_bytes=max(message_bytes, 64 * TINY_MTU),
            mtu_bytes=TINY_MTU,
            channels=n,
            inflight_messages=16,
        )
        res = run_sdr_throughput(
            message_bytes=message_bytes,
            n_messages=n_messages,
            inflight=16,
            channel=channel,
            sdr=sdr,
            dpa=DpaConfig(worker_threads=n),
        )
        rate = res.packet_rate
        table.add_row(
            n,
            round(rate / 1e6, 2),
            round(rate * REF_MTU * 8 / 1e12, 3),
            round(rate / n / 1e6, 3),
        )
    return table
