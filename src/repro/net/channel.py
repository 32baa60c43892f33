"""Unidirectional lossy, delayed, bandwidth-limited channel.

A :class:`Channel` is the serialize -> propagate -> (maybe drop) pipe between
two simulated NIC ports.  Serialization is FIFO at the configured line rate,
so concurrent QPs sharing one physical long-haul link contend naturally.
Optional per-packet jitter produces the out-of-order deliveries that motivate
SDR's one-write-per-packet backend (Section 3.2.1 of the paper).

:class:`DuplexLink` bundles the two directions of a link and is what
:class:`repro.verbs.Fabric` installs between two devices.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappush

import numpy as np

from repro.common.config import ChannelConfig
from repro.net.fluid import FluidLink
from repro.net.loss import BernoulliLoss, LossModel, NoLoss
from repro.net.packet import Packet
from repro.sim.engine import Simulator


@dataclass
class ChannelStats:
    """Point-in-time snapshot of one channel's counters.

    Channels accumulate into the simulation-wide
    :class:`~repro.telemetry.MetricsRegistry` (scope ``net.<name>``); this
    dataclass is the read-side view ``Channel.stats`` materializes for
    tests and benchmarks.
    """

    packets_offered: int = 0
    packets_dropped: int = 0
    packets_duplicated: int = 0
    tail_drops: int = 0
    ecn_marked: int = 0
    bytes_offered: int = 0
    bytes_delivered: int = 0
    busy_until: float = field(default=0.0, repr=False)

    @property
    def observed_drop_rate(self) -> float:
        if self.packets_offered == 0:
            return 0.0
        return self.packets_dropped / self.packets_offered


class Channel:
    """One direction of a link: FIFO serialization, delay, jitter, loss."""

    def __init__(
        self,
        sim: Simulator,
        config: ChannelConfig,
        *,
        rng: np.random.Generator,
        loss: LossModel | None = None,
        name: str = "channel",
    ):
        self.sim = sim
        self.config = config
        self.name = name
        self.rng = rng
        if loss is None:
            loss = (
                BernoulliLoss(config.drop_probability)
                if config.drop_probability > 0
                else NoLoss()
            )
        self.loss = loss
        self._sink: Callable[[Packet], None] | None = None
        self._busy_until = 0.0
        scope = sim.telemetry.metrics.scope(f"net.{name}")
        self._m_offered = scope.counter("packets_offered")
        self._m_dropped = scope.counter("packets_dropped")
        self._m_duplicated = scope.counter("packets_duplicated")
        self._m_tail_drops = scope.counter("tail_drops")
        self._m_ecn_marked = scope.counter("ecn_marked")
        self._m_bytes_offered = scope.counter("bytes_offered")
        self._m_bytes_delivered = scope.counter("bytes_delivered")
        # Point-in-time congestion signals, refreshed at every enqueue: the
        # queueing delay a packet arriving now would see and the equivalent
        # backlog in bytes (see docs/congestion.md).
        self._g_queue_delay = scope.gauge("queue_delay_seconds")
        self._g_backlog = scope.gauge("backlog_bytes")
        self._trace = sim.telemetry.trace
        self._track = f"net.{name}"
        # Bound once: every packet in flight waits on the heap holding it.
        self._deliver_cb = self._deliver

    @property
    def config(self) -> ChannelConfig:
        return self._config

    @config.setter
    def config(self, config: ChannelConfig) -> None:
        # The config is frozen, so what the per-packet path reads is hoisted
        # once per (re)binding instead of chased through it on every call.
        self._config = config
        self._bps = config.bytes_per_second
        self._one_way = config.one_way_delay
        self._jitter = config.jitter_fraction
        self._dup = config.duplicate_probability
        self._buffer = config.buffer_bytes
        self._ecn = config.ecn_threshold_bytes

    def attach_sink(self, sink: Callable[[Packet], None]) -> None:
        """Register the receive-side port that consumes delivered packets."""
        self._sink = sink

    # -- transmission ----------------------------------------------------------

    @staticmethod
    def _lineage(packet: Packet) -> dict:
        """Correlation-key args for trace events touching this packet."""
        if packet.msg_seq is None:
            return {}
        return {
            "msg": packet.msg_seq,
            "pkt": packet.pkt_idx,
            "chunk": packet.chunk,
            "attempt": packet.attempt,
        }

    def transmit(self, packet: Packet) -> float:
        """Enqueue ``packet`` for transmission; returns injection-done time.

        The caller regains the "wire" once serialization finishes (the
        returned absolute simulated time); delivery happens asynchronously
        one propagation delay (plus jitter) later unless dropped.
        """
        if self._sink is None:
            raise RuntimeError(f"{self.name}: no sink attached")
        sim = self.sim
        now = sim.now
        busy = self._busy_until
        start = busy if busy > now else now
        length = packet.length
        self._m_offered.value += 1
        self._m_bytes_offered.value += length

        # Serialization backlog at enqueue: data already queued but not yet
        # on the wire.  It is both the tail-drop criterion and the gauge /
        # ECN congestion signal.
        backlog = (start - now) * self._bps
        self._g_queue_delay.value = start - now
        self._g_backlog.value = backlog
        if self._buffer > 0 and backlog + length > self._buffer:
            # Bounded egress buffer overflow tail-drops the new packet.
            self._m_dropped.value += 1
            self._m_tail_drops.value += 1
            if self._trace.enabled:
                self._trace.instant(
                    "tail_drop", cat="net", track=self._track,
                    psn=packet.psn, bytes=length,
                    **self._lineage(packet),
                )
            return now  # dropped at enqueue: no wire time consumed

        if self._ecn > 0 and backlog >= self._ecn:
            # RFC 3168-style Congestion Experienced mark: the packet is
            # delivered, the receiver echoes the mark through the
            # reliability ACK path (see repro.cc).
            packet.ce = True
            self._m_ecn_marked.value += 1
            if self._trace.enabled:
                self._trace.counter(
                    "net_backlog", cat="net", track=self._track,
                    backlog_bytes=backlog,
                )

        done = start + length / self._bps
        self._busy_until = done

        # Read per call (a fault can swap the model); NoLoss draws nothing.
        loss = self.loss
        if type(loss) is not NoLoss and loss.drops(self.rng, length):
            # A wire (loss-model) drop still consumed serialization time,
            # unlike a tail drop; the distinct instant name keeps the two
            # separable in chaos traces.
            self._m_dropped.value += 1
            if self._trace.enabled:
                self._trace.instant(
                    "loss_drop", cat="net", track=self._track,
                    psn=packet.psn, bytes=length,
                    **self._lineage(packet),
                )
            return done

        self._m_bytes_delivered.value += length
        if self._trace.enabled:
            self._trace.complete(
                "tx", cat="net", track=self._track, start=start, end=done,
                psn=packet.psn, bytes=length,
                **self._lineage(packet),
            )
            if packet.flow_id is not None:
                # Terminate the retransmit-trigger flow arrow at the wire.
                self._trace.flow_finish(
                    "retx", cat="net", track=self._track,
                    flow_id=packet.flow_id, msg=packet.msg_seq,
                    chunk=packet.chunk, attempt=packet.attempt,
                )
        delay = self._flight_delay() if self._jitter > 0 else self._one_way
        # ``sim.call_at(done + delay, ...)`` inlined: the same key and
        # ``_seq``.  Its guard cannot fire, as ``done >= now`` and the
        # flight delay is never negative (``_flight_delay`` clamps at 0).
        t = done + delay
        heappush(sim._heap, (now + (t - now), sim._seq, self._deliver_cb, (packet,)))
        sim._seq += 1
        if self._dup > 0 and self.rng.random() < self._dup:
            # In-network duplication: the copy takes its own (jittered) path.
            self._m_duplicated.value += 1
            sim.call_at(done + self._flight_delay(), self._deliver_cb, packet)
        return done

    @cached_property
    def fluid(self) -> FluidLink:
        """This channel's fluid-booking state (:mod:`repro.net.fluid`),
        built on first use so packet-mode channels never carry it."""
        return FluidLink(self)

    def _flight_delay(self) -> float:
        delay = self._one_way
        if self._jitter > 0:
            # Truncated-at-zero Gaussian jitter; enough to reorder packets
            # whose serialization times are closer than the jitter scale.
            jitter = self.rng.normal(0.0, self._jitter * max(delay, 1e-9))
            delay = max(0.0, delay + jitter)
        return delay

    def _deliver(self, packet: Packet) -> None:
        assert self._sink is not None
        self._sink(packet)

    @property
    def stats(self) -> ChannelStats:
        """Snapshot of this channel's registry counters."""
        return ChannelStats(
            packets_offered=self._m_offered.value,
            packets_dropped=self._m_dropped.value,
            packets_duplicated=self._m_duplicated.value,
            tail_drops=self._m_tail_drops.value,
            ecn_marked=self._m_ecn_marked.value,
            bytes_offered=self._m_bytes_offered.value,
            bytes_delivered=self._m_bytes_delivered.value,
            busy_until=self._busy_until,
        )

    @property
    def next_free(self) -> float:
        """Earliest time a new packet could start serializing."""
        return max(self.sim.now, self._busy_until)

    @property
    def queue_delay(self) -> float:
        """Seconds a packet enqueued now would wait before serializing.

        The serialization backlog is the latency signal a plane-health
        monitor can observe without waiting a flight time (see
        ``repro.recovery``).
        """
        return max(0.0, self._busy_until - self.sim.now)


class DuplexLink:
    """The two directions of a physical link between two devices."""

    def __init__(
        self,
        sim: Simulator,
        config: ChannelConfig,
        *,
        rng_fwd: np.random.Generator,
        rng_rev: np.random.Generator,
        config_rev: ChannelConfig | None = None,
        name: str = "link",
    ):
        self.forward = Channel(sim, config, rng=rng_fwd, name=f"{name}.fwd")
        self.reverse = Channel(
            sim,
            config_rev if config_rev is not None else config,
            rng=rng_rev,
            name=f"{name}.rev",
        )
        self.config = config
        self.name = name
