"""A self-contained SR/EC-over-WAN run that exercises the full telemetry stack.

``run_demo`` builds a two-datacenter fabric (lossy WAN link, SDR contexts
with DPA engines on both sides), drives N reliable writes through the chosen
reliability protocol, and returns the finished :class:`DemoResult` whose
``sim.telemetry`` carries every counter and trace event of the run.  It
backs the ``repro report`` CLI subcommand and the telemetry integration /
determinism tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cc import CC_ALGORITHMS, Pacer, make_controller
from repro.common.config import ChannelConfig, SdrConfig
from repro.common.errors import ConfigError
from repro.common.units import KiB, MiB
from repro.faults import FaultSchedule
from repro.recovery import PlaneRecovery
from repro.reliability import SCHEMES
from repro.reliability.base import ControlPath, ReceiveTicket, WriteTicket
from repro.reliability.ec import EcConfig, largest_receive
from repro.reliability.sampling import SamplingConfig
from repro.reliability.sr import SrConfig
from repro.sim.engine import Simulator
from repro.stack import build_pair, closed_loop, endpoints
from repro.telemetry import Telemetry

#: The registered schemes ``run_demo`` configures: ``nack=`` already spells
#: ``sr_nack``, and GBN has no recovery or congestion hooks to arm.
PROTOCOLS = tuple(
    name for name in SCHEMES.complete() if name not in ("sr_nack", "gbn")
)
#: SDR channels and generations of the demo's QPs.
CHANNELS = 4
GENERATIONS = 4
#: Resumptions per message that ``recover=True`` arms.
RESUMPTIONS = 4


@dataclass
class DemoResult:
    """Everything a caller needs after the simulated run finishes."""

    sim: Simulator
    protocol: str
    messages: int
    message_bytes: int
    elapsed: float
    write_tickets: list[WriteTicket] = field(default_factory=list)
    recv_tickets: list[ReceiveTicket] = field(default_factory=list)
    #: Forward-direction plane recovery when ``recover=True`` and
    #: ``planes`` is set (None otherwise).
    recovery: PlaneRecovery | None = None
    #: The sender-side pacer when ``cc`` is not None (None otherwise).
    pacer: Pacer | None = None
    #: Control paths (sender side, receiver side): their ``bytes_sent``
    #: gives the protocol's control/ACK wire overhead for the run.
    ctrl_a: ControlPath | None = None
    ctrl_b: ControlPath | None = None

    @property
    def telemetry(self) -> Telemetry:
        return self.sim.telemetry

    @property
    def failed_writes(self) -> int:
        """Writes that ended in an error completion (retry budget, timeout)."""
        return sum(1 for t in self.write_tickets if t.failed)

    @property
    def goodput_gbps(self) -> float:
        delivered = self.messages - self.failed_writes
        return delivered * self.message_bytes * 8 / self.elapsed / 1e9


def run_demo(
    *,
    protocol: str = "sr",
    messages: int = 4,
    message_bytes: int = 4 * MiB,
    drop: float = 0.01,
    bandwidth_bps: float = 100e9,
    distance_km: float = 1000.0,
    mtu_bytes: int = 4 * KiB,
    chunk_bytes: int = 64 * KiB,
    seed: int = 0,
    nack: bool = False,
    telemetry: Telemetry | None = None,
    faults: FaultSchedule | None = None,
    sr_config: SrConfig | None = None,
    ec_config: EcConfig | None = None,
    sampling_config: SamplingConfig | None = None,
    planes: int | None = None,
    spread: str = "flow",
    recover: bool = False,
    cc: str | None = "none",
    cc_rate_bps: float | None = None,
    buffer_bytes: int = 0,
    ecn_threshold_bytes: int = 0,
) -> DemoResult:
    """Run ``messages`` reliable writes dc-a -> dc-b over a lossy WAN link.

    ``telemetry`` lets the caller pre-attach trace sinks (or disable
    metrics); the default is metrics-on / trace-off.  ``faults`` runs the
    transfer under a deterministic fault schedule (both link directions plus
    the receive-side DPA engine); failed writes are tolerated and surface in
    :attr:`DemoResult.failed_writes`.

    ``planes`` bonds the WAN link into that many planes (``spread`` picks
    the spraying policy).  ``recover=True`` arms the recovery plane:
    bitmap-driven resumption on the reliability layer (``RESUMPTIONS``
    per message, unless the caller's config already allows some) and --
    on a bonded link -- per-plane circuit-breaker failover.

    ``cc`` picks the congestion-control algorithm (``none`` / ``swift``
    / ``dcqcn``); the default null controller attaches a pacer that never
    paces, so the ``cc.*`` metrics scope exists but the run's event order
    is untouched.  ``cc=None`` skips the cc plane entirely (no pacer, no
    ``cc.*`` metrics -- the byte-identity reference).  ``cc_rate_bps``
    gives the null controller a fixed rate; ``buffer_bytes`` /
    ``ecn_threshold_bytes`` arm tail drop and CE marking on the link.
    """
    if protocol not in PROTOCOLS:
        raise ConfigError(
            f"protocol must be 'sr', 'ec', 'adaptive' or 'sampling', "
            f"got {protocol!r}"
        )
    if messages <= 0:
        raise ConfigError(f"messages must be > 0, got {messages}")
    if cc is not None and cc not in CC_ALGORITHMS:
        raise ConfigError(f"cc must be one of {CC_ALGORITHMS}, got {cc!r}")

    channel = ChannelConfig(
        bandwidth_bps=bandwidth_bps,
        distance_km=distance_km,
        mtu_bytes=mtu_bytes,
        drop_probability=drop,
        buffer_bytes=buffer_bytes,
        ecn_threshold_bytes=ecn_threshold_bytes,
    )
    ec_config = ec_config if ec_config is not None else EcConfig()
    # EC needs 2L SDR receive slots per message (L data + L parity subs).
    sdr_cfg = SdrConfig(
        chunk_bytes=chunk_bytes,
        max_message_bytes=largest_receive(
            message_bytes,
            chunk_bytes,
            ec_config if protocol in ("ec", "adaptive") else None,
        ),
        mtu_bytes=mtu_bytes,
        channels=CHANNELS,
        generations=GENERATIONS,
        inflight_messages=64,
    )
    stack = build_pair(
        channel, sdr_cfg, planes=planes, spread=spread, faults=faults,
        seed=seed, telemetry=telemetry,
    )
    sim, qp_a, ctx_b = stack.sim, stack.qp_a, stack.ctx_b

    recovery = None
    if recover and stack.bonded is not None:
        # One monitor per direction; breakers attach to the *inner* bonded
        # channels (the fault wrappers forward transmits through them).
        recovery = PlaneRecovery(sim, stack.bonded[0], rtt=channel.rtt)
        PlaneRecovery(sim, stack.bonded[1], rtt=channel.rtt)

    configs = {
        "sr": sr_config if sr_config is not None else SrConfig(nack_enabled=nack),
        "ec": ec_config,
        "sampling": (
            sampling_config if sampling_config is not None else SamplingConfig()
        ),
    }
    if recover:
        # Arm bitmap-driven resumption unless the caller already did.
        configs = {
            name: cfg if cfg.max_resumptions > 0
            else replace(cfg, max_resumptions=RESUMPTIONS)
            for name, cfg in configs.items()
        }
    if protocol in configs:
        sender, receiver = endpoints(protocol, stack, configs[protocol])
    else:  # adaptive: provisions SR or EC per message, so it takes both
        sender, receiver = endpoints(
            protocol, stack, sr_config=configs["sr"], ec_config=configs["ec"]
        )
    if recovery is not None:
        sender.attach_recovery(recovery)

    pacer = None
    if cc is not None:
        knobs = {"rate_bps": cc_rate_bps} if cc == "none" else {}
        controller = make_controller(
            cc, line_rate_bps=bandwidth_bps, base_rtt=channel.rtt, **knobs
        )
        pacer = Pacer(sim, controller, name="dc-a", planes=planes or 1)
        qp_a.attach_pacer(pacer)
        if hasattr(sender, "attach_cc"):  # EC has no RTT/ECN ACK path
            sender.attach_cc(pacer)
        if recovery is not None:
            recovery.attach_pacer(pacer)

    mr = ctx_b.mr_reg(message_bytes)
    write_tickets: list[WriteTicket] = []
    recv_tickets: list[ReceiveTicket] = []

    sim.run(closed_loop(
        sim, sender, receiver, mr, message_bytes, lambda posted: posted < messages,
        write_tickets, recv_tickets,
    ))
    elapsed = sim.now
    if faults is None:
        sim.run()  # drain grace-period re-ACK traffic
    else:
        # Under faults a receiver may legitimately keep serving an
        # undeliverable message, so the drain must be bounded: run to the
        # end of the schedule and leave any residue unprocessed.
        sim.run(max(sim.now, faults.horizon))

    return DemoResult(
        sim=sim,
        protocol=protocol,
        messages=messages,
        message_bytes=message_bytes,
        elapsed=elapsed,
        write_tickets=write_tickets,
        recv_tickets=recv_tickets,
        recovery=recovery,
        pacer=pacer,
        ctrl_a=stack.ctrl_a,
        ctrl_b=stack.ctrl_b,
    )
