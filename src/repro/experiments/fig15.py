"""Figure 15: impact of the SDR bitmap chunk size.

Sweeping the chunk size from one packet (4 KiB) to 64 packets (256 KiB)
trades drop-detection granularity against PCIe traffic: larger chunks raise
the theoretical chunk drop probability ``P_chunk = 1 - (1 - P)^N`` but cost
one host bitmap update per N packets instead of per packet.  The paper's
finding -- 16 DPA threads hold the line rate across the whole range --
reproduces because DPA load is per-*packet*, not per-byte.
"""

from __future__ import annotations

from repro.common.config import ChannelConfig, DpaConfig, SdrConfig
from repro.common.units import KiB, MiB
from repro.experiments.report import Table
from repro.experiments.testbed import run_sdr_throughput
from repro.models.params import packet_to_chunk_drop

DEFAULT_CHUNKS = [4 * KiB, 8 * KiB, 16 * KiB, 32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB]
#: DPA receive threads, and the per-packet drop rate of the P_chunk column.
RX_THREADS = 16
P_PACKET = 1e-5


def run(
    *,
    chunk_sizes: list[int] | None = None,
    message_bytes: int = 4 * MiB,
    n_messages: int = 16,
) -> Table:
    """Throughput and P_chunk_drop per chunk size (4 KiB MTU, 400 Gbit/s)."""
    chunks = chunk_sizes if chunk_sizes is not None else DEFAULT_CHUNKS
    channel = ChannelConfig(bandwidth_bps=400e9, distance_km=0.1, mtu_bytes=4 * KiB)
    table = Table(
        title=(
            f"Figure 15: bitmap chunk size sweep "
            f"({message_bytes >> 20} MiB messages, {RX_THREADS} DPA threads)"
        ),
        columns=[
            "chunk_B",
            "pkts_per_chunk",
            "sdr_gbps",
            "frac_of_line",
            "chunk_updates",
            "p_chunk_drop",
        ],
        notes=f"theoretical P_chunk at per-packet P_drop = {P_PACKET:g}",
    )
    for chunk in chunks:
        ppc = chunk // channel.mtu_bytes
        sdr = SdrConfig(
            chunk_bytes=chunk,
            max_message_bytes=max(message_bytes, chunk),
            channels=16,
            inflight_messages=16,
        )
        res = run_sdr_throughput(
            message_bytes=message_bytes,
            n_messages=n_messages,
            inflight=16,
            channel=channel,
            sdr=sdr,
            dpa=DpaConfig(worker_threads=RX_THREADS),
        )
        table.add_row(
            chunk,
            ppc,
            round(res.throughput_bps / 1e9, 1),
            round(res.throughput_bps / channel.bandwidth_bps, 3),
            (message_bytes // chunk) * n_messages,
            round(packet_to_chunk_drop(P_PACKET, ppc), 8),
        )
    return table
