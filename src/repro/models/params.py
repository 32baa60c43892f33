"""Parameter bundle for the completion-time models.

The models work at *chunk* granularity (a chunk = one receive-bitmap bit,
Section 4.2.1):

* ``M`` -- message size in chunks,
* ``T_INJ`` -- time to inject one chunk (chunk size / bandwidth),
* ``P_drop`` -- i.i.d. probability that a chunk is dropped,
* ``RTT`` / ``RTO`` -- round-trip time and the SR retransmission timeout.

:class:`ModelParams` derives all of these from physical link parameters and
offers the packet->chunk drop conversion of Section 5.4.2:
``P_chunk = 1 - (1 - P_pkt)^N`` for N packets per chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.common.config import ChannelConfig
from repro.common.errors import ConfigError
from repro.common.units import KiB, distance_to_rtt


def packet_to_chunk_drop(p_packet: float, packets_per_chunk: int) -> float:
    """``P_drop^chunk = 1 - (1 - P_drop)^N`` (Figure 15's conversion)."""
    if not 0.0 <= p_packet < 1.0:
        raise ConfigError(f"packet drop probability must be in [0,1), got {p_packet}")
    if packets_per_chunk <= 0:
        raise ConfigError(f"need >= 1 packet per chunk, got {packets_per_chunk}")
    return -math.expm1(packets_per_chunk * math.log1p(-p_packet))


@dataclass(frozen=True)
class ModelParams:
    """Everything the SR/EC completion-time models need."""

    bandwidth_bps: float = 400e9
    rtt: float = 25e-3
    chunk_bytes: int = 64 * KiB
    #: Per-*chunk* i.i.d. drop probability (convert per-packet rates with
    #: :func:`packet_to_chunk_drop`).
    drop_probability: float = 1e-5
    #: SR retransmission timeout in RTTs (RTO = rto_rtts * RTT).  3 models
    #: the paper's "SR RTO" scenario; 1 approximates "SR NACK".
    rto_rtts: float = 3.0
    #: EC fallback-timeout slack in RTTs (the paper's beta).
    beta_rtts: float = 1.0

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ConfigError("bandwidth must be positive")
        if self.rtt < 0:
            raise ConfigError("rtt must be non-negative")
        if self.chunk_bytes <= 0:
            raise ConfigError("chunk size must be positive")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigError("drop probability must be in [0, 1)")
        if self.rto_rtts <= 0 or self.beta_rtts < 0:
            raise ConfigError("invalid timeout parameters")

    # -- derived quantities ---------------------------------------------------------

    @property
    def t_inj(self) -> float:
        """Chunk injection time T_INJ."""
        return self.chunk_bytes / (self.bandwidth_bps / 8.0)

    @property
    def rto(self) -> float:
        return self.rto_rtts * self.rtt

    @property
    def retransmission_overhead(self) -> float:
        """The Appendix A per-drop overhead O = RTO + T_INJ."""
        return self.rto + self.t_inj

    def chunks_in(self, message_bytes: int) -> int:
        if message_bytes <= 0:
            raise ConfigError(f"message size must be > 0, got {message_bytes}")
        return max(1, math.ceil(message_bytes / self.chunk_bytes))

    def ideal_completion(self, message_bytes: int) -> float:
        """Lossless Write completion: injection + final ACK round trip."""
        return self.chunks_in(message_bytes) * self.t_inj + self.rtt

    # -- constructors -----------------------------------------------------------------

    @classmethod
    def from_channel(
        cls,
        config: ChannelConfig,
        *,
        chunk_bytes: int = 64 * KiB,
        rto_rtts: float = 3.0,
        chunk_drop: bool = False,
    ) -> "ModelParams":
        """Build model parameters from a simulated channel config.

        ``chunk_drop=False`` converts the channel's per-packet drop rate to
        the chunk-level rate the model needs.
        """
        p = config.drop_probability
        if not chunk_drop:
            p = packet_to_chunk_drop(p, max(1, chunk_bytes // config.mtu_bytes))
        return cls(
            bandwidth_bps=config.bandwidth_bps,
            rtt=config.rtt,
            chunk_bytes=chunk_bytes,
            drop_probability=p,
            rto_rtts=rto_rtts,
        )

    def at_distance(self, distance_km: float) -> "ModelParams":
        """Same link with a different fiber distance."""
        return replace(self, rtt=distance_to_rtt(distance_km))

    def with_drop(self, p: float) -> "ModelParams":
        return replace(self, drop_probability=p)

    def with_bandwidth(self, bandwidth_bps: float) -> "ModelParams":
        return replace(self, bandwidth_bps=bandwidth_bps)
