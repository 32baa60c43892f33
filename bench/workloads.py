"""The five benchmark workloads, built only from ``repro``'s public calls.

Each workload is a function ``(Round) -> Outcome``.  ``Round.scale``
shrinks the message count or the arrival window and nothing else (1.0 is
the timed size, 0.01 the warm-up, ``--check`` uses a few percent), so a
miniature run crosses the same code as the full one.  The program under
test sees only inputs generated from ``Round.seed``.

Why these five, and which layers each one is meant to load, is recorded
per workload in ``WORKLOADS`` and at length in ``bench/README.md``.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.cc.incast import run_incast
from repro.common import ChannelConfig, KiB, MiB, ReproError, SdrConfig
from repro.ec import ReedSolomonCode, register_codec
from repro.fabric import (
    FabricNetwork,
    FabricService,
    FabricServiceConfig,
    ScaleConfig,
    TenantSpec,
    metrics_digest,
    scale_scenario,
    submit_schedule,
    two_tier,
)
from repro.reliability import (
    ControlPath,
    EcConfig,
    EcReceiver,
    EcSender,
    SrConfig,
    SrReceiver,
    SrSender,
)
from repro.sdr import context_create
from repro.sim import Simulator
from repro.sim.engine import SimConfig
from repro.telemetry import Telemetry
from repro.verbs import Fabric
from repro.workloads.openloop import OpenLoopConfig, generate

#: Two-node workloads: closed loop, one client, this many 1 MiB Writes.
WAN_MESSAGES = 135
WAN_MESSAGE_BYTES = 1 * MiB
WAN_PAYLOAD_POOL = 8
#: ``incast_cc``: messages each of the 8 closed-loop senders posts.
INCAST_MESSAGES_PER_SENDER = 128
#: Arrival windows of the two open-loop fabric workloads, simulated s.
FABRIC_PKT_WINDOW = 0.065
FABRIC_FLUID_WINDOW = 0.35
#: Tenants offer equal rates (sizes stay Pareto).  With the scenario's
#: default rate skew six seeds in ten drew a tenant far over its quota,
#: whose backlog alone set the last ACK and the tail: simulated goodput
#: then differed 4x between seeds, which no regression bound survives.
EQUAL_RATES = 0.0


@dataclass
class Round:
    """What one run of a workload is given."""

    seed: int
    scale: float
    telemetry: Telemetry
    #: Registry name of the MDS codec ``wan_ec`` selects.
    codec: str = "mds"
    #: Host clock the stage timings are read from.
    clock: Callable[[], float] = time.perf_counter
    #: Host seconds per stage, filled in by :meth:`stamp`.
    stages: dict[str, float] = field(default_factory=dict)
    _mark: float | None = None

    def stamp(self, stage: str | None = None) -> None:
        """Charge the time since the previous stamp to ``stage``."""
        now = self.clock()
        if stage is not None:
            self.stages[stage] = self.stages.get(stage, 0.0) + (now - self._mark)
        self._mark = now


@dataclass
class Outcome:
    """What one workload run produced, before any metric is derived."""

    sim: Simulator
    attempted: int
    #: Messages that failed or whose received bytes differ from those sent.
    failed: int
    delivered_bytes: int
    #: Simulated time of the last acknowledgment.
    last_ack: float
    #: Per-message completion times in simulated seconds.
    spans: list[float]
    #: Extra workload-specific verification, run only under ``--check``.
    verify: Callable[[], None] | None = None


class CodecClock:
    """Host time inside the erasure codec, measured through a wrapper codec.

    Codecs run synchronously inside ``reliability`` callbacks, so the
    profiler charges them to ``reliability``.  The traced round selects a
    timing subclass of the MDS codec through the public registry
    (``register_codec`` + ``EcConfig(codec=...)``) instead; it computes
    the same bytes, so every simulated statistic is unchanged.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.seconds = 0.0
        self.encode_calls = 0
        self.decode_calls = 0
        totals = self

        class TimedMds(ReedSolomonCode):
            def encode(self, data):
                start = clock()
                try:
                    return super().encode(data)
                finally:
                    totals.seconds += clock() - start
                    totals.encode_calls += 1

            def decode(self, chunks):
                start = clock()
                try:
                    return super().decode(chunks)
                finally:
                    totals.seconds += clock() - start
                    totals.decode_calls += 1

        # The registry refuses to rebind a name, so each clock gets its own.
        self.codec = f"bench-timed-mds-{id(self):x}"
        register_codec(self.codec, TimedMds)


# -- wan_sr / wan_ec -----------------------------------------------------------


def _two_node(protocol: str, rnd: Round) -> Outcome:
    """Closed loop, one client: payload-carrying Writes over one lossy WAN
    link, built like ``examples/gradient_sync.py``."""
    count = max(2, round(WAN_MESSAGES * rnd.scale))
    size = WAN_MESSAGE_BYTES
    seed = rnd.seed
    rnd.stamp()
    # A small pool of distinct random payloads, cycled: consecutive
    # messages always differ, and the benchmark does not spend its wall
    # clock page-faulting a hundred MiB of input.
    words = np.random.default_rng(seed).integers(
        0, 2**64, size=(WAN_PAYLOAD_POOL, size // 8), dtype=np.uint64
    )
    pool = [row.tobytes() for row in words]
    rnd.stamp("workloads.generate_s")

    sim = Simulator(telemetry=rnd.telemetry)
    fabric = Fabric(sim, seed=seed)
    a, b = fabric.add_device("dc-a"), fabric.add_device("dc-b")
    fabric.connect(a, b, ChannelConfig(
        bandwidth_bps=100e9, distance_km=1000.0, mtu_bytes=4 * KiB,
        drop_probability=1e-2,
    ))
    sdr = SdrConfig(
        chunk_bytes=16 * KiB, max_message_bytes=4 * MiB,
        channels=8, inflight_messages=64,
    )
    ctx_a = context_create(a, sdr_config=sdr)
    ctx_b = context_create(b, sdr_config=sdr)
    qa, qb = ctx_a.qp_create(), ctx_b.qp_create()
    qa.connect(qb.info_get())
    qb.connect(qa.info_get())
    ctrl_a, ctrl_b = ControlPath(ctx_a), ControlPath(ctx_b)
    ctrl_a.connect(ctrl_b.info())
    ctrl_b.connect(ctrl_a.info())
    if protocol == "sr":
        cfg = SrConfig(nack_enabled=False, rto_rtts=3.0)
        sender, receiver = SrSender(qa, ctrl_a, cfg), SrReceiver(qb, ctrl_b, cfg)
    else:
        cfg = EcConfig(codec=rnd.codec, k=32, m=8)
        sender, receiver = EcSender(qa, ctrl_a, cfg), EcReceiver(qb, ctrl_b, cfg)
    # One receive buffer, reused: consecutive payloads differ, so a stale
    # or partly written buffer can never compare equal.
    mr = ctx_b.mr_reg(size, data=bytearray(size))
    rnd.stamp("sdr.build_s")

    spans: list[float] = []

    def client():
        for i in range(count):
            payload = pool[i % len(pool)]
            receiver.post_receive(mr, size)
            ticket = sender.write(size, payload)
            try:
                yield ticket.done
            except ReproError:
                continue  # clean error completion: a failed message
            if mr.data == payload:
                spans.append(ticket.completion_time)

    done = sim.process(client())
    sim.run(done)
    last_ack = sim.now
    sim.run()  # drain the receiver's grace-period re-ACKs
    rnd.stamp("sim.run_s")

    return Outcome(
        sim=sim,
        attempted=count,
        failed=count - len(spans),
        delivered_bytes=len(spans) * size,
        last_ack=last_ack,
        spans=spans,
    )


def wan_sr(rnd: Round) -> Outcome:
    return _two_node("sr", rnd)


def wan_ec(rnd: Round) -> Outcome:
    return _two_node("ec", rnd)


# -- incast_cc -----------------------------------------------------------------


def incast_cc(rnd: Round) -> Outcome:
    """Closed loop, 8 clients into one small-buffer channel under Swift."""
    rnd.stamp()
    # One public call builds and runs, so build time cannot be split out
    # from outside; it is a few milliseconds and is charged to sim.run_s.
    result = run_incast(
        senders=8, cc="swift",
        messages_per_sender=max(1, round(INCAST_MESSAGES_PER_SENDER * rnd.scale)),
        seed=rnd.seed, telemetry=rnd.telemetry,
    )
    rnd.stamp("sim.run_s")
    good = [
        t for t in result.write_tickets
        if t.finish_time is not None and not t.failed
    ]
    return Outcome(
        sim=result.sim,
        attempted=result.messages,
        failed=result.messages - len(good),
        delivered_bytes=len(good) * result.message_bytes,
        last_ack=result.elapsed,
        spans=[t.completion_time for t in good],
    )


# -- fabric_pkt / fabric_fluid -------------------------------------------------


def _fabric(config: ScaleConfig, rnd: Round) -> Outcome:
    """Open loop: Poisson arrivals on the simulated clock.

    The same public calls ``scale_scenario`` makes, in the same order, so
    the registry digest equals ``scale_scenario(config).digest`` (checked
    under ``--check``); assembled here so each stage is timed on its own
    and ``service.flows`` is readable.  Arrivals are scheduled in
    simulated time, so the generator is never late, and every span runs
    from the scheduled submit instant (``FlowTicket.submitted``).
    """
    rnd.stamp()
    workload = generate(
        OpenLoopConfig(
            tenants=config.tenants,
            duration=config.duration,
            offered_load_bps=config.offered_load_bps,
            mean_message_bytes=config.mean_message_bytes,
            max_message_bytes=config.max_message_bytes,
            rate_skew=config.rate_skew,
        ),
        seed=config.seed,
    )
    rnd.stamp("workloads.generate_s")

    topo = two_tier(
        tors=config.tors,
        hosts_per_tor=config.hosts_per_tor,
        host_link=ChannelConfig(
            bandwidth_bps=config.host_bps, distance_km=config.host_km
        ),
        wan_link=ChannelConfig(
            bandwidth_bps=config.wan_bps,
            distance_km=config.wan_km,
            buffer_bytes=4 * MiB,
            ecn_threshold_bytes=1 * MiB,
        ),
    )
    sim = Simulator(telemetry=rnd.telemetry, config=SimConfig(fluid=config.fluid))
    network = FabricNetwork(sim, topo, seed=config.seed)
    service = FabricService(
        network, config=FabricServiceConfig(cc=config.cc, max_flows_per_qp=256)
    )
    hosts = topo.hosts
    names = []
    placement = {}
    fair_share = config.offered_load_bps / config.tenants
    for t in range(config.tenants):
        names.append(f"t{t}")
        service.add_tenant(TenantSpec(
            name=names[t], quota_bps=config.quota_headroom * fair_share
        ))
        src = hosts[t % len(hosts)]
        dst = hosts[(t + len(hosts) // 2) % len(hosts)]
        if src == dst:
            dst = hosts[(t + 1) % len(hosts)]
        placement[t] = (src, dst)
    rnd.stamp("fabric.build_s")

    submit_schedule(service, workload, names, placement)
    rnd.stamp("fabric.submit_s")

    sim.run()
    rnd.stamp("sim.run_s")

    good = [t for t in service.flows if t.completed is not None and not t.failed]

    def verify() -> None:
        ours = metrics_digest(sim.telemetry.metrics)
        theirs = scale_scenario(config).digest
        if ours != theirs:
            raise AssertionError(
                f"hand-assembled fabric run digest {ours[:12]} != "
                f"scale_scenario digest {theirs[:12]}"
            )

    return Outcome(
        sim=sim,
        attempted=len(service.flows),
        failed=len(service.flows) - len(good),
        delivered_bytes=sum(t.nbytes for t in good),
        last_ack=max((t.completed for t in good), default=0.0),
        spans=[t.span for t in good],
        verify=verify,
    )


def fabric_pkt(rnd: Round) -> Outcome:
    return _fabric(
        ScaleConfig(
            tenants=200, tors=2, hosts_per_tor=2, offered_load_bps=60e9,
            duration=FABRIC_PKT_WINDOW * rnd.scale, seed=rnd.seed,
            rate_skew=EQUAL_RATES,
        ),
        rnd,
    )


def fabric_fluid(rnd: Round) -> Outcome:
    return _fabric(
        ScaleConfig(
            tenants=1000, tors=4, hosts_per_tor=4, offered_load_bps=200e9,
            mean_message_bytes=2 * MiB, max_message_bytes=32 * MiB,
            duration=FABRIC_FLUID_WINDOW * rnd.scale, seed=rnd.seed, fluid=True,
            rate_skew=EQUAL_RATES,
        ),
        rnd,
    )


@dataclass(frozen=True)
class Workload:
    run: Callable[[Round], Outcome]
    #: ``closed`` (next request after the previous completes) or ``open``
    #: (requests arrive on a schedule regardless).
    loop: str
    #: The tail percentile reported at full size.  The sample count must
    #: support it (>= 10 samples beyond it) or the run fails; miniature
    #: runs fall back to the highest percentile their count supports.
    tail_pct: float
    #: Whether the seed changes the inputs.  ``run_incast`` draws nothing
    #: (no random loss, no jitter), so ``incast_cc`` is the same run for
    #: every seed and its digest does not depend on it.
    seeded: bool = True


WORKLOADS: dict[str, Workload] = {
    "wan_sr": Workload(wan_sr, "closed", 90.0),
    "wan_ec": Workload(wan_ec, "closed", 90.0),
    "incast_cc": Workload(incast_cc, "closed", 99.0, seeded=False),
    "fabric_pkt": Workload(fabric_pkt, "open", 99.9),
    "fabric_fluid": Workload(fabric_fluid, "open", 90.0),
}
