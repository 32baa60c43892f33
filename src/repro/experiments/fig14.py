"""Figure 14: SDR end-to-end throughput on the simulated 400 Gbit/s testbed.

Left: throughput vs message size with 16 in-flight Writes and 64 KiB bitmap
chunks, against the RC-Write baseline -- SDR trails RC below ~512 KiB
(receive-repost software overhead) and saturates the line rate above.

Right: receive DPA thread scaling for a fixed message size.
"""

from __future__ import annotations

from repro.common.config import ChannelConfig, DpaConfig, SdrConfig
from repro.common.units import KiB, MiB
from repro.experiments.report import Table
from repro.experiments.testbed import run_rc_throughput, run_sdr_throughput

DEFAULT_SIZES = [64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB, 1 * MiB, 4 * MiB, 16 * MiB]
DEFAULT_THREADS = [1, 2, 4, 8, 16]
#: DPA receive threads of the left panel.
RX_THREADS = 16


def _channel() -> ChannelConfig:
    # Intra-cluster testbed: 400 Gbit/s, ~100 m, lossless (Spectrum-X).
    return ChannelConfig(bandwidth_bps=400e9, distance_km=0.1, mtu_bytes=4 * KiB)


def _sdr(max_message: int, channels: int = 16) -> SdrConfig:
    return SdrConfig(
        chunk_bytes=64 * KiB,
        max_message_bytes=max(max_message, 64 * KiB),
        channels=channels,
        inflight_messages=16,
    )


def run_message_size_sweep(
    *, sizes: list[int] | None = None, n_messages: int = 24
) -> Table:
    """(left): SDR vs RC throughput across message sizes."""
    sizes = sizes if sizes is not None else DEFAULT_SIZES
    channel = _channel()
    table = Table(
        title=(
            f"Figure 14 (left): throughput vs message size "
            f"(16 in-flight, 64 KiB chunks, {RX_THREADS} DPA rx threads)"
        ),
        columns=["size_B", "sdr_gbps", "rc_gbps", "sdr_frac_of_line", "dpa_util"],
    )
    for size in sizes:
        sdr = run_sdr_throughput(
            message_bytes=size,
            n_messages=n_messages,
            inflight=16,
            channel=channel,
            sdr=_sdr(size),
            dpa=DpaConfig(worker_threads=RX_THREADS),
        )
        rc = run_rc_throughput(
            message_bytes=size, n_messages=n_messages, channel=channel
        )
        table.add_row(
            size,
            round(sdr.throughput_bps / 1e9, 1),
            round(rc.throughput_bps / 1e9, 1),
            round(sdr.throughput_bps / channel.bandwidth_bps, 3),
            round(sdr.dpa_utilization, 3),
        )
    return table


def run_thread_scaling(
    *,
    threads: list[int] | None = None,
    message_bytes: int = 16 * MiB,
    n_messages: int = 12,
) -> Table:
    """(right): throughput vs number of receive DPA worker threads."""
    threads = threads if threads is not None else DEFAULT_THREADS
    channel = _channel()
    table = Table(
        title=f"Figure 14 (right): DPA thread scaling ({message_bytes >> 20} MiB messages)",
        columns=["rx_threads", "sdr_gbps", "frac_of_line", "pkt_rate_mpps"],
    )
    for n in threads:
        res = run_sdr_throughput(
            message_bytes=message_bytes,
            n_messages=n_messages,
            inflight=16,
            channel=channel,
            sdr=_sdr(message_bytes, channels=max(n, 1)),
            dpa=DpaConfig(worker_threads=n),
        )
        table.add_row(
            n,
            round(res.throughput_bps / 1e9, 1),
            round(res.throughput_bps / channel.bandwidth_bps, 3),
            round(res.packet_rate / 1e6, 2),
        )
    return table


def run() -> list[Table]:
    return [run_message_size_sweep(), run_thread_scaling()]
