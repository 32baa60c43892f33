"""Validated configuration dataclasses shared across the stack.

Three configs mirror the three layers of the paper's system:

* :class:`ChannelConfig` -- the long-haul channel (Section 2): bandwidth,
  distance (=> RTT), MTU, drop probability, reordering.
* :class:`SdrConfig` -- the SDR middleware (Section 3): bitmap chunk size,
  maximum message size, immediate-field bit split, generations and channels.
* :class:`DpaConfig` -- the DPA emulation (Section 3.4): worker-thread count
  and the per-completion processing cost that governs packet-rate scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

from repro.common.errors import ConfigError
from repro.common.units import Gbit, KiB, MiB, distance_to_rtt


@dataclass(frozen=True)
class ChannelConfig:
    """Parameters of a (possibly long-haul) sender->receiver channel."""

    bandwidth_bps: float = 400 * Gbit
    distance_km: float = 3750.0
    mtu_bytes: int = 4 * KiB
    drop_probability: float = 0.0
    #: Standard deviation of per-packet extra delay as a fraction of the
    #: one-way delay; > 0 produces the out-of-order arrivals that motivate
    #: SDR's one-write-per-packet backend (Section 3.2.1).
    jitter_fraction: float = 0.0
    #: Probability a delivered packet is duplicated in transit (switch or
    #: ISP retransmission artifacts); reliability layers must be idempotent.
    duplicate_probability: float = 0.0
    #: Egress buffer of the bottleneck switch in bytes; 0 = unbounded.
    #: When the backlog exceeds it, packets tail-drop -- the load-dependent
    #: congestion loss the Figure 2 campaign attributes to the ISP switch.
    buffer_bytes: int = 0
    #: ECN marking threshold in bytes of serialization backlog; 0 disables
    #: marking.  Packets enqueued while the backlog is at or above the
    #: threshold get their CE bit set (RFC 3168 style) and the receiver
    #: echoes the mark through the reliability ACK path -- the congestion
    #: signal ``repro.cc`` controllers react to.
    ecn_threshold_bytes: int = 0
    #: Switch-buffering coefficient alpha from the SR RTO formula
    #: ``RTO = RTT + alpha * RTT`` (Section 4.1.1).
    alpha: ClassVar[float] = 2.0

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ConfigError(f"bandwidth must be > 0, got {self.bandwidth_bps}")
        if self.distance_km < 0:
            raise ConfigError(f"distance must be >= 0, got {self.distance_km}")
        if self.mtu_bytes <= 0:
            raise ConfigError(f"MTU must be > 0, got {self.mtu_bytes}")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigError(
                f"drop probability must be in [0, 1), got {self.drop_probability}"
            )
        if self.jitter_fraction < 0:
            raise ConfigError(f"jitter must be >= 0, got {self.jitter_fraction}")
        if not 0.0 <= self.duplicate_probability < 1.0:
            raise ConfigError(
                f"duplicate probability must be in [0, 1), got "
                f"{self.duplicate_probability}"
            )
        if self.buffer_bytes < 0:
            raise ConfigError(
                f"buffer size must be >= 0, got {self.buffer_bytes}"
            )
        if self.ecn_threshold_bytes < 0:
            raise ConfigError(
                f"ECN threshold must be >= 0, got {self.ecn_threshold_bytes}"
            )

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

    @property
    def bandwidth_delay_product(self) -> float:
        """Bytes in flight on the full round trip (the paper's BDP)."""
        return self.bytes_per_second * self.rtt

    def packet_time(self, size_bytes: int | None = None) -> float:
        """Serialization time of one packet (default: one MTU)."""
        size = self.mtu_bytes if size_bytes is None else size_bytes
        return size / self.bytes_per_second


@dataclass(frozen=True)
class SdrConfig:
    """SDR middleware parameters (Section 3).

    The transport immediate is 32 bits split into ``msg_id_bits`` for the
    message ID, ``offset_bits`` for the packet offset (in MTUs) and
    ``user_imm_bits`` for user-immediate reconstruction; the paper's default
    split is 10 + 18 + 4.
    """

    chunk_bytes: int = 64 * KiB
    max_message_bytes: int = 1024 * MiB
    mtu_bytes: int = 4 * KiB
    msg_id_bits: int = 10
    offset_bits: int = 18
    user_imm_bits: int = 4
    #: Number of message-ID generations (internal QP sets) for late-packet
    #: protection (Section 3.3.2).
    generations: int = 4
    #: Number of parallel channel QPs per generation (Section 3.4.1).
    channels: int = 16
    #: Receive message-table slots exposed to the application; bounded by
    #: 2**msg_id_bits in-flight descriptors per QP.
    inflight_messages: int = 16

    def __post_init__(self) -> None:
        if self.mtu_bytes <= 0:
            raise ConfigError(f"MTU must be > 0, got {self.mtu_bytes}")
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
        if min(self.msg_id_bits, self.offset_bits) <= 0 or self.user_imm_bits < 0:
            raise ConfigError("immediate bit fields must be positive")
        if self.max_message_bytes > self.mtu_bytes << self.offset_bits:
            raise ConfigError(
                f"max message {self.max_message_bytes} B not addressable with "
                f"{self.offset_bits} offset bits at MTU {self.mtu_bytes} "
                f"(limit {self.mtu_bytes << self.offset_bits} B); use a wider "
                "split such as 8+22+2"
            )
        if self.generations < 1:
            raise ConfigError(f"need >= 1 generation, got {self.generations}")
        if self.channels < 1:
            raise ConfigError(f"need >= 1 channel, got {self.channels}")
        if not 0 < self.inflight_messages <= 1 << self.msg_id_bits:
            raise ConfigError(
                f"inflight messages must be in (0, {1 << self.msg_id_bits}], "
                f"got {self.inflight_messages}"
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

    def packets_in(self, message_bytes: int) -> int:
        """Number of MTU packets covering a message of ``message_bytes``."""
        if message_bytes <= 0:
            raise ConfigError(f"message size must be > 0, got {message_bytes}")
        return math.ceil(message_bytes / self.mtu_bytes)


#: DPA hardware threads a device has (the worker pool's ceiling).
DPA_TOTAL_THREADS = 256


@dataclass(frozen=True)
class DpaConfig:
    """Emulated Data Path Accelerator (Section 3.4).

    The paper reports 16 DPA threads sustaining ~15 Mpps of per-packet
    completion processing independent of payload size (Section 5.4.2); the
    default per-completion cost is calibrated to that measurement:
    ``16 threads / 15 Mpps ~= 1.067 us per completion per thread``.
    """

    worker_threads: int = 16
    #: Seconds of DPA worker time to process one packet completion
    #: (validate generation, update per-packet bitmap).
    per_cqe_seconds: float = 16 / 15e6
    #: Extra seconds when a completion closes a chunk and the worker updates
    #: the host-side chunk bitmap over PCIe.
    pcie_update_seconds: float = 2.0e-7

    def __post_init__(self) -> None:
        if not 0 < self.worker_threads <= DPA_TOTAL_THREADS:
            raise ConfigError(
                f"worker threads must be in (0, {DPA_TOTAL_THREADS}], "
                f"got {self.worker_threads}"
            )
        if self.per_cqe_seconds <= 0:
            raise ConfigError(f"per-CQE cost must be > 0, got {self.per_cqe_seconds}")
        if self.pcie_update_seconds < 0:
            raise ConfigError("PCIe update cost must be >= 0")

    @property
    def aggregate_packet_rate(self) -> float:
        """Packets/s the configured worker pool can process."""
        return self.worker_threads / self.per_cqe_seconds


def default_wan_channel(*, drop_probability: float = 1e-5) -> ChannelConfig:
    """The paper's canonical cross-continent channel (Section 5.2): the
    :class:`ChannelConfig` defaults, 400 Gbit/s over 3750 km."""
    return ChannelConfig(drop_probability=drop_probability)
