"""Validated configuration dataclasses shared across the stack.

Three configs mirror the three layers of the paper's system:

* :class:`ChannelConfig` -- the long-haul channel (Section 2): bandwidth,
  distance (=> RTT), MTU, drop probability, reordering.
* :class:`SdrConfig` -- the SDR middleware (Section 3): bitmap chunk size,
  maximum message size, immediate-field bit split, generations and channels.
* :class:`DpaConfig` -- the DPA emulation (Section 3.4): worker-thread count
  and the per-completion processing cost that governs packet-rate scaling.

A field's range is declared with the field, ``field(metadata=bound(gt=0))``
(:class:`Bound`), here and in every other config of the stack;
:func:`check_bounds` enforces all of a dataclass's ranges at construction,
and a check that spans fields stays code in ``__post_init__``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, ClassVar, Collection

from repro.common.errors import ConfigError
from repro.common.units import Gbit, KiB, MiB, distance_to_rtt


@dataclass(frozen=True)
class Bound:
    """The range one field must lie in, declared with the field::

        rto_rtts: float = field(default=3.0, metadata=bound(gt=0))

    Every comparison set must hold (``gt`` / ``ge`` / ``lt`` / ``le``),
    ``one_of`` lists the legal values, and ``optional`` admits ``None`` as
    well.  A limit is a literal or a module constant, never another field:
    a check that spans fields stays code in ``__post_init__``, after
    :func:`check_bounds`.
    """

    gt: Any = None
    ge: Any = None
    lt: Any = None
    le: Any = None
    one_of: Collection | None = None
    optional: bool = False

    def admits(self, value: Any) -> bool:
        if value is None:
            return self.optional
        if self.one_of is not None:
            return value in self.one_of
        return (
            (self.gt is None or value > self.gt)
            and (self.ge is None or value >= self.ge)
            and (self.lt is None or value < self.lt)
            and (self.le is None or value <= self.le)
        )

    def __str__(self) -> str:
        if self.one_of is not None:
            text = f"one of {sorted(self.one_of)}"
        else:
            limits = [
                (op, bracket, value)
                for op, bracket, value in (
                    (">", "(", self.gt), (">=", "[", self.ge),
                    ("<", ")", self.lt), ("<=", "]", self.le),
                )
                if value is not None
            ]
            if len(limits) == 2:
                (_, left, low), (_, right, high) = limits
                text = f"in {left}{low!r}, {high!r}{right}"
            else:
                text = " and ".join(f"{op} {value!r}" for op, _, value in limits)
        return f"{text} or None" if self.optional else text


def bound(**limits: Any) -> dict[str, Bound]:
    """``field(metadata=...)`` for a field that must lie in ``Bound(**limits)``."""
    return {"bound": Bound(**limits)}


def check_bounds(obj: Any) -> None:
    """Raise :class:`ConfigError` naming the first field of ``obj`` outside
    its declared :class:`Bound`."""
    for f in fields(obj):
        limit = f.metadata.get("bound")
        if limit is not None and not limit.admits(value := getattr(obj, f.name)):
            raise ConfigError(f"{f.name} must be {limit}, got {value!r}")


class Bounded:
    """Base of a dataclass whose fields carry bounds: constructing one runs
    :func:`check_bounds`.  A subclass with checks that span fields defines
    its own ``__post_init__`` and calls :func:`check_bounds` first."""

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass(frozen=True)
class ChannelConfig(Bounded):
    """Parameters of a (possibly long-haul) sender->receiver channel."""

    bandwidth_bps: float = field(default=400 * Gbit, metadata=bound(gt=0))
    distance_km: float = field(default=3750.0, metadata=bound(ge=0))
    mtu_bytes: int = field(default=4 * KiB, metadata=bound(gt=0))
    drop_probability: float = field(default=0.0, metadata=bound(ge=0, lt=1))
    #: Standard deviation of per-packet extra delay as a fraction of the
    #: one-way delay; > 0 produces the out-of-order arrivals that motivate
    #: SDR's one-write-per-packet backend (Section 3.2.1).
    jitter_fraction: float = field(default=0.0, metadata=bound(ge=0))
    #: Probability a delivered packet is duplicated in transit (switch or
    #: ISP retransmission artifacts); reliability layers must be idempotent.
    duplicate_probability: float = field(default=0.0, metadata=bound(ge=0, lt=1))
    #: Egress buffer of the bottleneck switch in bytes; 0 = unbounded.
    #: When the backlog exceeds it, packets tail-drop -- the load-dependent
    #: congestion loss the Figure 2 campaign attributes to the ISP switch.
    buffer_bytes: int = field(default=0, metadata=bound(ge=0))
    #: ECN marking threshold in bytes of serialization backlog; 0 disables
    #: marking.  Packets enqueued while the backlog is at or above the
    #: threshold get their CE bit set (RFC 3168 style) and the receiver
    #: echoes the mark through the reliability ACK path -- the congestion
    #: signal ``repro.cc`` controllers react to.
    ecn_threshold_bytes: int = field(default=0, metadata=bound(ge=0))
    #: Switch-buffering coefficient alpha from the SR RTO formula
    #: ``RTO = RTT + alpha * RTT`` (Section 4.1.1).
    alpha: ClassVar[float] = 2.0

    # The config is frozen, so the derived quantities the per-packet paths
    # read are computed once per instance (cached_property stores into the
    # instance dict, which a frozen dataclass still has).

    @cached_property
    def rtt(self) -> float:
        """Network round-trip time in seconds."""
        return distance_to_rtt(self.distance_km)

    @cached_property
    def one_way_delay(self) -> float:
        """Propagation delay sender -> receiver in seconds."""
        return self.rtt / 2.0

    @cached_property
    def bytes_per_second(self) -> float:
        return self.bandwidth_bps / 8.0

    def packet_time(self, size_bytes: int | None = None) -> float:
        """Serialization time of one packet (default: one MTU)."""
        size = self.mtu_bytes if size_bytes is None else size_bytes
        return size / self.bytes_per_second


@dataclass(frozen=True)
class SdrConfig(Bounded):
    """SDR middleware parameters (Section 3).

    The transport immediate is 32 bits split into ``msg_id_bits`` for the
    message ID, ``offset_bits`` for the packet offset (in MTUs) and
    ``user_imm_bits`` for user-immediate reconstruction; the paper's default
    split is 10 + 18 + 4.
    """

    chunk_bytes: int = field(default=64 * KiB, metadata=bound(gt=0))
    max_message_bytes: int = field(default=1024 * MiB, metadata=bound(gt=0))
    mtu_bytes: int = field(default=4 * KiB, metadata=bound(gt=0))
    msg_id_bits: int = field(default=10, metadata=bound(gt=0))
    offset_bits: int = field(default=18, metadata=bound(gt=0))
    user_imm_bits: int = field(default=4, metadata=bound(ge=0))
    #: Number of message-ID generations (internal QP sets) for late-packet
    #: protection (Section 3.3.2).
    generations: int = field(default=4, metadata=bound(ge=1))
    #: Number of parallel channel QPs per generation (Section 3.4.1).
    channels: int = field(default=16, metadata=bound(ge=1))
    #: Receive message-table slots exposed to the application; bounded by
    #: 2**msg_id_bits in-flight descriptors per QP.
    inflight_messages: int = field(default=16, metadata=bound(gt=0))

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.chunk_bytes % self.mtu_bytes != 0:
            raise ConfigError(
                "chunk size must be a multiple of the MTU "
                f"(chunk={self.chunk_bytes}, mtu={self.mtu_bytes})"
            )
        if self.msg_id_bits + self.offset_bits + self.user_imm_bits != 32:
            raise ConfigError(
                "immediate split must total 32 bits, got "
                f"{self.msg_id_bits}+{self.offset_bits}+{self.user_imm_bits}"
            )
        if self.max_message_bytes > self.mtu_bytes << self.offset_bits:
            raise ConfigError(
                f"max message {self.max_message_bytes} B not addressable with "
                f"{self.offset_bits} offset bits at MTU {self.mtu_bytes} "
                f"(limit {self.mtu_bytes << self.offset_bits} B); use a wider "
                "split such as 8+22+2"
            )
        if self.inflight_messages > 1 << self.msg_id_bits:
            raise ConfigError(
                f"inflight messages must be <= 2**msg_id_bits = "
                f"{1 << self.msg_id_bits}, got {self.inflight_messages}"
            )

    @property
    def packets_per_chunk(self) -> int:
        return self.chunk_bytes // self.mtu_bytes

    @property
    def max_message_ids(self) -> int:
        return 1 << self.msg_id_bits

    def chunks_in(self, message_bytes: int) -> int:
        """Number of bitmap chunks covering a message of ``message_bytes``."""
        if message_bytes <= 0:
            raise ConfigError(f"message size must be > 0, got {message_bytes}")
        return math.ceil(message_bytes / self.chunk_bytes)


#: DPA hardware threads a device has (the worker pool's ceiling).
DPA_TOTAL_THREADS = 256


@dataclass(frozen=True)
class DpaConfig(Bounded):
    """Emulated Data Path Accelerator (Section 3.4).

    The paper reports 16 DPA threads sustaining ~15 Mpps of per-packet
    completion processing independent of payload size (Section 5.4.2); the
    default per-completion cost is calibrated to that measurement:
    ``16 threads / 15 Mpps ~= 1.067 us per completion per thread``.
    """

    worker_threads: int = field(default=16, metadata=bound(gt=0, le=DPA_TOTAL_THREADS))
    #: Seconds of DPA worker time to process one packet completion
    #: (validate generation, update per-packet bitmap).
    per_cqe_seconds: float = field(default=16 / 15e6, metadata=bound(gt=0))
    #: Extra seconds when a completion closes a chunk and the worker updates
    #: the host-side chunk bitmap over PCIe.
    pcie_update_seconds: float = field(default=2.0e-7, metadata=bound(ge=0))
