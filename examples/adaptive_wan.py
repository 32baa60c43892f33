#!/usr/bin/env python3
"""Adaptive reliability on a drifting WAN.

Figure 2 of the paper shows inter-datacenter drop rates swinging over
orders of magnitude between trials.  A statically provisioned protocol is
wrong half the time: SR stalls when the link turns lossy, EC wastes parity
bandwidth when it is clean.  This example drives the adaptive layer
(receiver-provisioned, model-advised -- Section 2.1's "per-connection
reliability protocol provisioning") through three consecutive weather
phases of one link and shows it migrating between SR and EC.

Run:  python examples/adaptive_wan.py
"""

from dataclasses import replace

from repro.common import ChannelConfig, SdrConfig, KiB, MiB
from repro.experiments.report import Table
from repro.net.loss import BernoulliLoss, NoLoss
from repro.reliability.adaptive import DropRateEstimator
from repro.reliability.ec import EcConfig
from repro.stack import build_pair, endpoints

SIZE = 512 * KiB
PHASES = [
    ("calm", 0.0, 4),
    ("congested", 0.03, 6),
    # The EWMA needs a stretch of clean messages to decay back below the
    # SR/EC crossover -- trust is rebuilt slowly, as it should be.
    ("calm again", 0.0, 16),
]


def main() -> None:
    channel = ChannelConfig(
        bandwidth_bps=100e9, distance_km=1000.0, mtu_bytes=4 * KiB,
        drop_probability=0.0,
    )
    cfg = SdrConfig(
        chunk_bytes=8 * KiB, max_message_bytes=1 * MiB,
        channels=4, inflight_messages=64,
    )
    stack = build_pair(channel, cfg, seed=11)
    sim = stack.sim

    sender, receiver = endpoints(
        "adaptive", stack, ec_config=EcConfig(codec="mds", k=8, m=4)
    )
    receiver.estimator = DropRateEstimator(initial=1e-6, alpha=0.5)
    mr = stack.ctx_b.mr_reg(SIZE)
    link = stack.fabric.links[("dc-a", "dc-b")]

    table = Table(
        title="Adaptive provisioning across link weather phases (512 KiB writes)",
        columns=["phase", "msg", "protocol", "ms", "retx_chunks",
                 "drop_estimate"],
    )
    msg = 0
    for phase, drop, count in PHASES:
        # The ISP weather changes: swap the loss process on the live link.
        link.forward.config = replace(link.forward.config, drop_probability=drop)
        link.forward.loss = BernoulliLoss(drop) if drop > 0 else NoLoss()
        for _ in range(count):
            receiver.post_receive(mr, SIZE)
            ticket = sender.write(SIZE)
            sim.run(ticket.done)
            msg += 1
            table.add_row(
                phase, msg, receiver.protocol_history[-1],
                round(ticket.completion_time * 1e3, 3),
                ticket.retransmitted_chunks,
                f"{receiver.estimator.estimate:.2g}",
            )
    print(table.render())
    history = receiver.protocol_history
    print(f"\nprotocol trajectory: {' -> '.join(history)}")
    assert history[0] == "sr", "calm start should use SR"
    assert "ec" in history, "the congested phase should trigger EC"
    assert history[-1] == "sr", "a long calm stretch should decay back to SR"
    print("adaptive layer migrated SR -> EC -> SR with the link weather.")


if __name__ == "__main__":
    main()
