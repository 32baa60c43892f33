"""Packet-level ring Allreduce across simulated datacenters.

Unlike :mod:`repro.collectives.ring_allreduce` (which samples stage times
from the Section 4.2 models), this module runs the collective on the full
stack: N devices in a ring, real SDR QPs and reliability endpoints on every
directed edge, and the 2N-2-round schedule run by one callback chain per
datacenter.  It is the ground truth the model-based simulator is validated
against (`tests/collectives/test_des_ring.py`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import ChannelConfig, DpaConfig, SdrConfig
from repro.common.errors import ConfigError
from repro.ec.segmented import SegmentLayout
from repro.reliability import SCHEMES
from repro.reliability.ec import EcConfig, largest_receive
from repro.reliability.sr import SrConfig
from repro.sim.engine import Event, Simulator
from repro.stack import build_ring
from repro.telemetry import Telemetry

#: The registered schemes the ring configures: those taking the SR or EC config.
PROTOCOLS = tuple(
    name for name, (sender_type, _, _) in SCHEMES.items()
    if sender_type.config_type in (SrConfig, EcConfig)
)


@dataclass
class DesRingResult:
    """Outcome of one packet-level ring Allreduce run."""

    n_datacenters: int
    buffer_bytes: int
    protocol: str
    completion_time: float
    rounds: int
    total_retransmitted_chunks: int = 0
    per_edge_drops: list[int] = field(default_factory=list)


def run_des_ring_allreduce(
    *,
    n_datacenters: int,
    buffer_bytes: int,
    channel: ChannelConfig,
    protocol: str = "sr",
    chunk_bytes: int = 16 * 1024,
    sr_config: SrConfig | None = None,
    ec_config: EcConfig | None = None,
    dpa: DpaConfig | None = None,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> DesRingResult:
    """Build the ring, run the 2N-2-round schedule, return timings."""
    if n_datacenters < 2:
        raise ConfigError(f"need >= 2 datacenters, got {n_datacenters}")
    if protocol not in PROTOCOLS:
        raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    if buffer_bytes < n_datacenters:
        raise ConfigError("buffer must be at least one byte per datacenter")

    segment = -(-buffer_bytes // n_datacenters)
    rounds = 2 * n_datacenters - 2

    config, inflight, ec = sr_config, 16, None
    if SCHEMES[protocol][0].config_type is EcConfig:
        config = ec = (
            ec_config if ec_config is not None
            else EcConfig(codec="mds", k=8, m=4)
        )
        # EC needs 2L SDR slots per in-flight receive.
        layout = SegmentLayout(segment, chunk_bytes, config.k, config.m)
        inflight = max(16, 2 * layout.nsegments + 2)
    sdr_cfg = SdrConfig(
        chunk_bytes=chunk_bytes,
        max_message_bytes=largest_receive(segment, chunk_bytes, ec),
        mtu_bytes=channel.mtu_bytes,
        channels=4,
        inflight_messages=min(inflight, 1024),
    )
    fabric, contexts, ends = build_ring(
        channel, sdr_cfg, n_datacenters, protocol, config, dpa=dpa, seed=seed,
        telemetry=telemetry,
    )
    completion, retransmitted = fabric.sim.run(
        _drive(fabric.sim, contexts, *zip(*ends), segment, rounds)
    )

    drops = [
        ctx.device.link_to(f"dc{(i + 1) % n_datacenters}").stats.packets_dropped
        for i, ctx in enumerate(contexts)
    ]
    return DesRingResult(
        n_datacenters=n_datacenters,
        buffer_bytes=buffer_bytes,
        protocol=protocol,
        completion_time=completion,
        rounds=rounds,
        total_retransmitted_chunks=retransmitted,
        per_edge_drops=drops,
    )


def _drive(sim: Simulator, contexts, senders, receivers, segment: int, rounds: int) -> Event:
    """Every datacenter's ``rounds``, one callback chain each; the event fires
    with ``(time, retransmitted chunks)`` once the last datacenter is done."""
    n = len(contexts)
    done = sim.event()
    tally = {"finished": 0, "retx": 0}

    def post_round(i: int, mr, left: int) -> None:
        if not left:
            tally["finished"] += 1
            if tally["finished"] == n:
                done.succeed((sim.now, tally["retx"]))
            return
        # Receive a segment from i-1 while sending one to i+1.  The next
        # round starts in an entry of its own once both tickets are done;
        # the first failure raises out of run() in one instead.
        ticket_in = receivers[(i - 1) % n].post_receive(mr, segment)
        ticket_out = senders[i].write(segment)
        pending = [ticket_in.done, ticket_out.done]

        def joined(ev: Event) -> None:
            pending.remove(ev)
            if not ev.ok:
                sim.call_in(0.0, lambda: ev.value)
            elif not pending:
                tally["retx"] += ticket_out.retransmitted_chunks
                sim.call_in(0.0, post_round, i, mr, left - 1)

        for ev in (ticket_in.done, ticket_out.done):
            ev.callbacks.append(joined)

    for i in range(n):
        mr = contexts[i].mr_reg(segment, name=f"dc{i}.segment")
        sim.call_in(0.0, post_round, i, mr, rounds)
    return done
