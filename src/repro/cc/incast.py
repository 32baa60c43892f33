"""Incast: N senders share one bottleneck channel (the cc showcase).

The paper's Figure 2 attributes WAN loss to ISP switch-buffer congestion.
This harness reproduces the collapse in miniature: ``senders`` SR
endpoints on one device blast concurrently into a single small-buffer
channel.  Unpaced (``cc="none"``), each sender self-clocks roughly one
packet into the shared FIFO, so the standing backlog is about one packet
per sender; a buffer smaller than that tail-drops continuously and every
drop triggers an RTO retransmission aimed straight back at the full
queue -- goodput collapses.  With ``swift`` or ``dcqcn`` the echoed
congestion signal (RTT inflation / CE marks, plus RTO losses) backs each
sender off until the aggregate rate fits the bottleneck, drops stop, and
goodput recovers.

The claim row ``incast_cc_recovery`` asserts the recovery is >= 2x and
the CI cc-smoke job runs it at tiny scale for every algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cc.controller import CC_ALGORITHMS, make_controller
from repro.cc.pacer import Pacer
from repro.common.config import ChannelConfig, SdrConfig
from repro.common.errors import ConfigError
from repro.common.units import KiB
from repro.reliability.base import WriteTicket
from repro.reliability.sr import SrConfig
from repro.sim.engine import Simulator
from repro.stack import build_pair, closed_loop, endpoints, wire
from repro.telemetry import Telemetry

#: The shared bottleneck: its buffer holds fewer bytes than one
#: outstanding packet per sender.
CHANNEL = ChannelConfig(
    bandwidth_bps=10e9,
    distance_km=10.0,
    mtu_bytes=4 * KiB,
    buffer_bytes=16 * KiB,
    ecn_threshold_bytes=8 * KiB,
)
CHUNK_BYTES = 16 * KiB


@dataclass
class IncastResult:
    """Outcome of one incast run."""

    sim: Simulator
    cc: str
    senders: int
    messages: int
    message_bytes: int
    elapsed: float
    write_tickets: list[WriteTicket] = field(default_factory=list)
    pacers: list[Pacer] = field(default_factory=list)

    @property
    def delivered_messages(self) -> int:
        """Writes fully acknowledged within the run (in-flight ones don't count)."""
        return sum(
            1
            for t in self.write_tickets
            if t.finish_time is not None and not t.failed
        )

    @property
    def goodput_gbps(self) -> float:
        """Aggregate delivered rate across all senders."""
        if self.elapsed <= 0:
            return 0.0
        return self.delivered_messages * self.message_bytes * 8 / self.elapsed / 1e9


def run_incast(
    *,
    senders: int = 8,
    cc: str = "none",
    messages_per_sender: int = 4,
    duration: float | None = None,
    message_bytes: int = 64 * KiB,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> IncastResult:
    """Run the incast workload under one cc algorithm; returns goodput.

    All ``senders`` live on one source device, so their packets contend
    for the single forward ``CHANNEL``; its buffer holds fewer bytes than
    one outstanding packet per sender, the regime where unpaced
    retransmission storms feed on themselves.

    With ``duration`` set the workload is *sustained*: every sender posts
    messages back-to-back until the clock hits ``duration`` and goodput
    counts only writes fully acknowledged by then.  That measures
    steady-state aggregate throughput rather than the completion time of
    the unluckiest straggler, which is the quantity congestion control
    actually improves.  Without ``duration`` each sender posts exactly
    ``messages_per_sender`` writes and the run lasts until all complete.
    """
    if cc not in CC_ALGORITHMS:
        raise ConfigError(f"cc must be one of {CC_ALGORITHMS}, got {cc!r}")
    if senders < 1:
        raise ConfigError(f"need >= 1 sender, got {senders}")
    if duration is not None and duration <= 0:
        raise ConfigError(f"duration must be > 0, got {duration}")

    sdr_cfg = SdrConfig(
        chunk_bytes=CHUNK_BYTES,
        max_message_bytes=max(message_bytes, CHUNK_BYTES),
        mtu_bytes=CHANNEL.mtu_bytes,
        inflight_messages=max(16, messages_per_sender),
    )
    stack = build_pair(
        CHANNEL, sdr_cfg, seed=seed, telemetry=telemetry, names=("src", "dst")
    )
    sim, ctx_dst = stack.sim, stack.ctx_b

    # Tail-drop storms need a deep retry budget so unpaced runs end in
    # delivery (slowly), not clean failures that would flatter goodput.
    sr_cfg = SrConfig(
        adaptive_rto=True,
        rto_backoff=True,
        max_message_retransmits=100_000,
        serve_deadline_rtts=1e9,
    )

    pairs = []
    pacers: list[Pacer] = []
    # Every further sender is one more edge between the same two contexts.
    edges = [stack, *(wire(stack.ctx_a, ctx_dst) for _ in range(senders - 1))]
    for i, edge in enumerate(edges):
        sender, receiver = endpoints("sr", edge, sr_cfg)
        controller = make_controller(
            cc, line_rate_bps=CHANNEL.bandwidth_bps, base_rtt=CHANNEL.rtt
        )
        # One-MTU burst: the default 16 KiB bucket would let every idle
        # sender blast four packets back-to-back, and N synchronized
        # bursts overflow the shared buffer even at a low average rate.
        pacer = Pacer(sim, controller, name=f"s{i}", burst_bytes=CHANNEL.mtu_bytes)
        edge.qp_a.attach_pacer(pacer)
        sender.attach_cc(pacer)
        pacers.append(pacer)
        pairs.append((sender, receiver))

    write_tickets: list[WriteTicket] = []

    def more(posted: int) -> bool:
        return sim.now < duration if duration is not None else posted < messages_per_sender

    loops = [
        closed_loop(sim, s, r, ctx_dst.mr_reg(message_bytes), message_bytes, more, write_tickets)
        for s, r in pairs
    ]
    if duration is not None:
        sim.run(until=duration)
        elapsed = duration
    else:
        for loop in loops:
            sim.run(loop)
        elapsed = sim.now
        sim.run()  # drain grace-period re-ACK traffic

    return IncastResult(
        sim=sim,
        cc=cc,
        senders=senders,
        messages=len(write_tickets),
        message_bytes=message_bytes,
        elapsed=elapsed,
        write_tickets=write_tickets,
        pacers=pacers,
    )
