#!/usr/bin/env python3
"""Quickstart: a reliable RDMA Write over a lossy cross-datacenter link.

Builds two simulated datacenters 375 km apart connected by a lossy
100 Gbit/s channel, brings up the SDR middleware on both sides, and runs a
Selective Repeat reliable Write.  The receive-side SDR bitmap reports which
chunks arrived; SR retransmits the rest.

This is the one place the Table 1 bring-up (``context_create`` ->
``qp_create`` -> ``qp_connect``, then the control path) is spelled out step
by step.  Everything else in the tree gets steps 1-3 from ``repro.stack``:
``build_pair(channel, sdr_cfg, seed=42)`` and ``endpoints("sr", stack, cfg)``.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.common import ChannelConfig, SdrConfig, KiB, MiB
from repro.reliability import ControlPath, SrConfig, SrReceiver, SrSender
from repro.sdr import context_create
from repro.sim import Simulator
from repro.verbs import Fabric


def main() -> None:
    # --- 1. Physical substrate: two NICs over a lossy long-haul channel.
    sim = Simulator()
    fabric = Fabric(sim, seed=42)
    lugano = fabric.add_device("lugano")
    lausanne = fabric.add_device("lausanne")
    channel = ChannelConfig(
        bandwidth_bps=100e9,       # 100 Gbit/s
        distance_km=375.0,         # ~2.5 ms RTT
        mtu_bytes=4 * KiB,
        drop_probability=5e-3,     # a bad day on the ISP link
    )
    fabric.connect(lugano, lausanne, channel)

    # --- 2. SDR middleware on both endpoints (Table 1 API).
    sdr_cfg = SdrConfig(
        chunk_bytes=16 * KiB,      # one bitmap bit per 16 KiB (4 packets)
        max_message_bytes=16 * MiB,
        channels=8,                # multi-channel DPA receive parallelism
    )
    ctx_tx = context_create(lugano, sdr_config=sdr_cfg)
    ctx_rx = context_create(lausanne, sdr_config=sdr_cfg)
    qp_tx, qp_rx = ctx_tx.qp_create(), ctx_rx.qp_create()
    qp_tx.connect(qp_rx.info_get())
    qp_rx.connect(qp_tx.info_get())

    # --- 3. Control path + Selective Repeat reliability layer.
    ctrl_tx, ctrl_rx = ControlPath(ctx_tx), ControlPath(ctx_rx)
    ctrl_tx.connect(ctrl_rx.info())
    ctrl_rx.connect(ctrl_tx.info())
    sr_cfg = SrConfig(nack_enabled=True, rto_rtts=3.0)
    sender = SrSender(qp_tx, ctrl_tx, sr_cfg)
    receiver = SrReceiver(qp_rx, ctrl_rx, sr_cfg)

    # --- 4. One reliable 8 MiB Write, with real payload bytes.
    size = 8 * MiB
    payload = np.random.default_rng(0).integers(
        0, 256, size, dtype=np.uint8
    ).tobytes()
    recv_buffer = bytearray(size)
    mr = ctx_rx.mr_reg(size, data=recv_buffer)
    receiver.post_receive(mr, size)
    ticket = sender.write(size, payload)
    sim.run(ticket.done)

    # --- 5. Report.
    link = fabric.links[("lugano", "lausanne")].forward
    print(f"message size        : {size >> 20} MiB")
    print(f"channel             : {channel.bandwidth_bps / 1e9:g} Gbit/s, "
          f"{channel.distance_km:g} km (RTT {channel.rtt * 1e3:.2f} ms), "
          f"P_drop {channel.drop_probability:g}")
    print(f"packets dropped     : {link.stats.packets_dropped} "
          f"of {link.stats.packets_offered}")
    print(f"chunks retransmitted: {ticket.retransmitted_chunks}")
    print(f"NACK fast-path hits : {ticket.nacks_received}")
    print(f"completion time     : {ticket.completion_time * 1e3:.3f} ms "
          f"(ideal {size / channel.bytes_per_second * 1e3 + channel.rtt * 1e3:.3f} ms)")
    print(f"data intact         : {bytes(recv_buffer) == payload}")


if __name__ == "__main__":
    main()
