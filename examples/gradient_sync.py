#!/usr/bin/env python3
"""Cross-datacenter gradient synchronization: SR vs EC, head to head.

The paper's motivating workload is multi-datacenter training, where
hundreds-of-MiB gradient buffers cross a lossy long-haul link every step.
This example pushes the same buffer through both reliability layers at
several drop rates -- first on the packet-level simulator (ground truth for
protocol behaviour), then through the analytical model at full 128 MiB /
400 Gbit/s scale.

Run:  python examples/gradient_sync.py
"""

from repro.common import ChannelConfig, SdrConfig, KiB, MiB
from repro.experiments.report import Table
from repro.models import (
    ModelParams,
    ec_expected_completion,
    sr_expected_completion,
)
from repro.models.params import packet_to_chunk_drop
from repro.reliability import EcConfig, SrConfig
from repro.stack import build_pair, endpoints

CONFIGS = {
    "sr": SrConfig(nack_enabled=False, rto_rtts=3.0),
    "ec": EcConfig(codec="mds", k=8, m=2),
}


def run_des(protocol: str, drop: float, size: int, seed: int) -> float:
    """One reliable Write on the packet-level simulator; returns seconds."""
    channel = ChannelConfig(
        bandwidth_bps=100e9, distance_km=1000.0, mtu_bytes=4 * KiB,
        drop_probability=drop,
    )
    sdr = SdrConfig(
        chunk_bytes=16 * KiB, max_message_bytes=4 * MiB,
        channels=8, inflight_messages=64,
    )
    stack = build_pair(channel, sdr, seed=seed)
    sender, receiver = endpoints(protocol, stack, CONFIGS[protocol])
    mr = stack.ctx_b.mr_reg(size)
    receiver.post_receive(mr, size)
    ticket = sender.write(size)
    stack.sim.run(ticket.done)
    return ticket.completion_time


def main() -> None:
    # --- Packet-level ground truth (4 MiB buffer keeps the DES quick).
    size = 4 * MiB
    des = Table(
        title=f"DES: {size >> 20} MiB gradient sync, 100 Gbit/s, 1000 km",
        columns=["p_drop", "sr_ms", "ec_ms", "ec_speedup"],
    )
    for i, drop in enumerate((1e-4, 1e-3, 5e-3)):
        sr_t = run_des("sr", drop, size, seed=10 + i)
        ec_t = run_des("ec", drop, size, seed=20 + i)
        des.add_row(
            drop, round(sr_t * 1e3, 3), round(ec_t * 1e3, 3),
            round(sr_t / ec_t, 2),
        )
    print(des.render())
    print()

    # --- Model at full production scale (128 MiB @ 400 Gbit/s, 3750 km).
    size = 128 * MiB
    model = Table(
        title=f"Model: {size >> 20} MiB gradient sync, 400 Gbit/s, 3750 km",
        columns=["p_packet", "sr_ms", "ec_ms", "ec_speedup"],
        notes="SR RTO = 3 RTT; EC = MDS(32, 8); means from the Section 4.2 model",
    )
    for p_pkt in (1e-6, 1e-5, 1e-4, 1e-3):
        params = ModelParams(
            bandwidth_bps=400e9, rtt=25e-3, chunk_bytes=64 * KiB,
            drop_probability=packet_to_chunk_drop(p_pkt, 16),
        )
        chunks = params.chunks_in(size)
        sr_t = sr_expected_completion(params, chunks)
        ec_t = ec_expected_completion(params, chunks, k=32, m=8)
        model.add_row(
            p_pkt, round(sr_t * 1e3, 3), round(ec_t * 1e3, 3),
            round(sr_t / ec_t, 2),
        )
    print(model.render())
    print("\nTakeaway: pick the reliability scheme per deployment -- EC wins "
          "in the lossy band, SR when the link is clean.")


if __name__ == "__main__":
    main()
