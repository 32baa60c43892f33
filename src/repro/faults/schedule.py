"""Deterministic, sim-time-scheduled fault descriptions.

A :class:`FaultWindow` is one time-boxed pathology of the kind the paper's
Section 2 measurement campaign observes on planetary-scale paths (and a few
the campaign cannot see but a reliability layer must survive anyway):

==================  =========================================================
kind                effect while ``start <= now < end``
==================  =========================================================
``blackout``        every matching packet is lost (loss override p = 1)
``brownout``        matching packets are lost with ``drop_probability``
``delay_spike``     matching packets arrive ``delay_seconds`` late (plus
                    uniform extra up to ``delay_jitter``)
``reorder``         matching packets pick up uniform extra delay in
                    ``[0, delay_jitter]`` -- a reordering storm
``duplicate``       matching packets are duplicated with
                    ``duplicate_probability``
``corrupt``         matching packets are corrupted in flight with
                    ``corrupt_probability``; the receiving NIC's ICRC check
                    discards them (equivalent to loss *after* wire time)
``dpa_stall``       DPA worker ``worker`` processes no CQEs inside the window
``dpa_crash``       DPA worker ``worker`` dies at ``start``; its completion
                    queues fail over to surviving workers
``edge_down``       hard blackout of one fabric link: both directed channels
                    of topology edge ``edge`` drop every packet (fiber cut)
``node_crash``      every edge incident to fabric node ``node`` goes dark for
                    the window (a ToR/WAN router crash)
==================  =========================================================

``selector`` makes channel faults *asymmetric*: ``"control"`` hits only
control-plane datagrams (ACK / NACK / CTS / Provision, i.e. UD sends and
transport ACKs), ``"data"`` hits only RDMA Write data packets, ``"all"``
hits both.  A control-only blackout is the classic pathology where data
keeps flowing but the sender goes blind.

A :class:`FaultSchedule` is an immutable collection of windows.  All
randomness involved in *executing* a schedule is drawn from the simulation's
named RNG substreams, so same-seed chaos runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.config import Bounded, bound, check_bounds
from repro.common.errors import ConfigError

#: Channel-plane fault kinds (handled by :class:`repro.faults.FaultyChannel`).
#: ``edge_down`` executes as a hard blackout once installed on a channel.
CHANNEL_KINDS = frozenset(
    {
        "blackout", "brownout", "delay_spike", "reorder", "duplicate",
        "corrupt", "edge_down",
    }
)
#: DPA-plane fault kinds (handled by :func:`repro.faults.install_dpa_faults`).
DPA_KINDS = frozenset({"dpa_stall", "dpa_crash"})
#: Fabric-addressed fault kinds: windows that name a topology edge or node
#: (handled by :func:`repro.fabric.chaos.install_fabric_faults`, which
#: translates them into per-edge ``edge_down`` channel windows).
FABRIC_KINDS = frozenset({"edge_down", "node_crash"})
KINDS = CHANNEL_KINDS | DPA_KINDS | FABRIC_KINDS

SELECTORS = ("all", "control", "data")


@dataclass(frozen=True)
class FaultWindow(Bounded):
    """One time-boxed fault. See module docstring for the kind semantics."""

    kind: str = field(metadata=bound(one_of=KINDS))
    start: float = field(metadata=bound(ge=0))
    end: float = math.inf
    #: Which packet class a channel fault hits: "all", "control" or "data".
    selector: str = field(default="all", metadata=bound(one_of=SELECTORS))
    #: Loss override for ``brownout`` (``blackout`` forces 1.0).
    drop_probability: float = field(default=1.0, metadata=bound(ge=0, le=1))
    #: Fixed extra one-way latency for ``delay_spike``.
    delay_seconds: float = field(default=0.0, metadata=bound(ge=0))
    #: Upper bound of the uniform extra delay (``reorder`` / ``delay_spike``).
    delay_jitter: float = field(default=0.0, metadata=bound(ge=0))
    #: Duplication probability for ``duplicate``.
    duplicate_probability: float = field(default=0.5, metadata=bound(ge=0, le=1))
    #: Corruption probability for ``corrupt``.
    corrupt_probability: float = field(default=1.0, metadata=bound(ge=0, le=1))
    #: Target worker index for ``dpa_stall`` / ``dpa_crash``.
    worker: int = field(default=0, metadata=bound(ge=0))
    #: Optional plane index: restrict a channel fault to one plane of a
    #: :class:`repro.net.multipath.BondedChannel`.  ``None`` hits every
    #: plane; installing a plane-scoped window on a non-bonded link is a
    #: :class:`ConfigError`.
    plane: int | None = field(default=None, metadata=bound(ge=0, optional=True))
    #: Target fabric link for ``edge_down`` in a fabric-level schedule
    #: (``(u, v)`` node names; both directed channels go dark).  ``None``
    #: when the window is already installed on a specific edge channel.
    edge: tuple[str, str] | None = None
    #: Target fabric node for ``node_crash`` (every incident edge dies).
    node: str | None = None

    def __post_init__(self) -> None:
        check_bounds(self)
        if not self.end > self.start:
            raise ConfigError(
                f"window end must be > start, got [{self.start}, {self.end})"
            )
        if self.kind == "dpa_stall" and not math.isfinite(self.end):
            raise ConfigError("dpa_stall windows need a finite end")
        if self.plane is not None and self.kind not in CHANNEL_KINDS:
            raise ConfigError(
                f"plane selector only applies to channel faults, not {self.kind!r}"
            )
        if self.edge is not None:
            if self.kind != "edge_down":
                raise ConfigError(
                    f"edge target only applies to edge_down, not {self.kind!r}"
                )
            object.__setattr__(self, "edge", tuple(self.edge))
            if len(self.edge) != 2 or not all(self.edge):
                raise ConfigError(
                    f"edge must be a (u, v) pair of node names, got {self.edge!r}"
                )
            if self.edge[0] == self.edge[1]:
                raise ConfigError(f"edge endpoints must differ, got {self.edge!r}")
        if self.kind == "node_crash":
            if not self.node:
                raise ConfigError("node_crash windows need a target node")
        elif self.node is not None:
            raise ConfigError(
                f"node target only applies to node_crash, not {self.kind!r}"
            )

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def matches(self, packet_class: str) -> bool:
        return self.selector == "all" or self.selector == packet_class

    def matches_plane(self, plane: int | None) -> bool:
        """Does this window hit a packet riding ``plane`` (None = unknown)?"""
        return self.plane is None or self.plane == plane


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, validated set of fault windows plus a display name."""

    windows: tuple[FaultWindow, ...] = ()
    name: str = "custom"

    def __post_init__(self) -> None:
        object.__setattr__(self, "windows", tuple(self.windows))
        for w in self.windows:
            if not isinstance(w, FaultWindow):
                raise ConfigError(f"schedule entries must be FaultWindow, got {w!r}")

    # -- queries ---------------------------------------------------------------

    @property
    def channel_windows(self) -> tuple[FaultWindow, ...]:
        return tuple(w for w in self.windows if w.kind in CHANNEL_KINDS)

    @property
    def dpa_windows(self) -> tuple[FaultWindow, ...]:
        return tuple(w for w in self.windows if w.kind in DPA_KINDS)

    @property
    def fabric_windows(self) -> tuple[FaultWindow, ...]:
        """Windows that address the fabric graph (``edge`` / ``node``
        targets) rather than one pre-resolved channel."""
        return tuple(
            w
            for w in self.windows
            if w.kind == "node_crash" or (w.kind == "edge_down" and w.edge)
        )

    def active_channel(
        self, now: float, packet_class: str
    ) -> list[FaultWindow]:
        """Channel windows covering ``now`` that hit ``packet_class``."""
        return [
            w
            for w in self.windows
            if w.kind in CHANNEL_KINDS and w.active(now) and w.matches(packet_class)
        ]

    @property
    def horizon(self) -> float:
        """Latest finite window end (0.0 for an empty/unbounded schedule)."""
        ends = [w.end for w in self.windows if math.isfinite(w.end)]
        starts = [w.start for w in self.windows]
        return max(ends + starts, default=0.0)


# -- named schedules ------------------------------------------------------------
#
# Each builder takes the link RTT and returns a schedule whose windows are
# expressed in RTT multiples, so one name works across link geometries.
# ``repro chaos --schedule <name>`` and the chaos test suite both use these.


def _blackout(rtt: float) -> FaultSchedule:
    return FaultSchedule(
        (FaultWindow(kind="blackout", start=5 * rtt, end=25 * rtt),),
        name="blackout",
    )


def _data_blackout(rtt: float) -> FaultSchedule:
    return FaultSchedule(
        (
            FaultWindow(
                kind="blackout", start=5 * rtt, end=25 * rtt, selector="data"
            ),
        ),
        name="data-blackout",
    )


def _ack_blackout(rtt: float) -> FaultSchedule:
    """Asymmetric: only control datagrams (ACK/NACK/CTS/Provision) die."""
    return FaultSchedule(
        (
            FaultWindow(
                kind="blackout", start=5 * rtt, end=25 * rtt, selector="control"
            ),
        ),
        name="ack-blackout",
    )


def _brownout(rtt: float) -> FaultSchedule:
    return FaultSchedule(
        (
            FaultWindow(
                kind="brownout", start=5 * rtt, end=40 * rtt,
                drop_probability=0.5,
            ),
        ),
        name="brownout",
    )


def _delay_spike(rtt: float) -> FaultSchedule:
    return FaultSchedule(
        (
            FaultWindow(
                kind="delay_spike", start=5 * rtt, end=30 * rtt,
                delay_seconds=2.0 * rtt, selector="data",
            ),
        ),
        name="delay-spike",
    )


def _reorder_storm(rtt: float) -> FaultSchedule:
    return FaultSchedule(
        (
            FaultWindow(
                kind="reorder", start=5 * rtt, end=30 * rtt,
                delay_jitter=1.0 * rtt,
            ),
        ),
        name="reorder-storm",
    )


def _dup_burst(rtt: float) -> FaultSchedule:
    return FaultSchedule(
        (
            FaultWindow(
                kind="duplicate", start=5 * rtt, end=30 * rtt,
                duplicate_probability=0.5,
            ),
        ),
        name="dup-burst",
    )


def _corrupt(rtt: float) -> FaultSchedule:
    return FaultSchedule(
        (
            FaultWindow(
                kind="corrupt", start=5 * rtt, end=30 * rtt,
                corrupt_probability=0.3,
            ),
        ),
        name="corrupt",
    )


def _dpa_stall(rtt: float) -> FaultSchedule:
    return FaultSchedule(
        (FaultWindow(kind="dpa_stall", start=5 * rtt, end=25 * rtt, worker=0),),
        name="dpa-stall",
    )


def _dpa_crash(rtt: float) -> FaultSchedule:
    return FaultSchedule(
        (FaultWindow(kind="dpa_crash", start=5 * rtt, worker=0),),
        name="dpa-crash",
    )


def _plane_blackout(rtt: float) -> FaultSchedule:
    """Plane 0 of a bonded link goes totally dark for 30 RTTs.

    Only meaningful on a bonded (multi-plane) link; installing it on a
    plain link raises ``ConfigError``.  With the recovery plane enabled
    the breaker opens plane 0, traffic fails over to the survivors, and
    the plane is re-admitted by probes after the window ends.
    """
    return FaultSchedule(
        (FaultWindow(kind="blackout", start=5 * rtt, end=35 * rtt, plane=0),),
        name="plane-blackout",
    )


def _chaos_mix(rtt: float) -> FaultSchedule:
    """Several overlapping pathologies: the kitchen-sink liveness check."""
    return FaultSchedule(
        (
            FaultWindow(kind="blackout", start=5 * rtt, end=12 * rtt),
            FaultWindow(
                kind="reorder", start=10 * rtt, end=30 * rtt,
                delay_jitter=0.8 * rtt,
            ),
            FaultWindow(
                kind="duplicate", start=15 * rtt, end=35 * rtt,
                duplicate_probability=0.3,
            ),
            FaultWindow(
                kind="brownout", start=30 * rtt, end=45 * rtt,
                drop_probability=0.3, selector="control",
            ),
            FaultWindow(kind="dpa_stall", start=8 * rtt, end=20 * rtt, worker=0),
        ),
        name="chaos-mix",
    )


NAMED_SCHEDULES: dict[str, object] = {
    "blackout": _blackout,
    "data-blackout": _data_blackout,
    "ack-blackout": _ack_blackout,
    "brownout": _brownout,
    "delay-spike": _delay_spike,
    "reorder-storm": _reorder_storm,
    "dup-burst": _dup_burst,
    "corrupt": _corrupt,
    "dpa-stall": _dpa_stall,
    "dpa-crash": _dpa_crash,
    "plane-blackout": _plane_blackout,
    "chaos-mix": _chaos_mix,
}


def named_schedule(name: str, *, rtt: float) -> FaultSchedule:
    """Instantiate one of :data:`NAMED_SCHEDULES` for a link of ``rtt``."""
    builder = NAMED_SCHEDULES.get(name)
    if builder is None:
        raise ConfigError(
            f"unknown fault schedule {name!r}; known: "
            f"{', '.join(sorted(NAMED_SCHEDULES))}"
        )
    if rtt <= 0:
        raise ConfigError(f"rtt must be > 0, got {rtt}")
    return builder(rtt)
