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

import numpy as np

from repro.common.config import ChannelConfig
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
    def packets_delivered(self) -> int:
        return self.packets_offered - self.packets_dropped

    @property
    def observed_drop_rate(self) -> float:
        if self.packets_offered == 0:
            return 0.0
        return self.packets_dropped / self.packets_offered


class Channel:
    """One direction of a link: FIFO serialization, delay, jitter, loss."""

    #: Buckets in the fluid booking ring.  With the default bucket width
    #: (one 64 KiB segment's serialization, or 1/32 of the buffer drain
    #: time on buffered edges) this spans several milliseconds of
    #: arrival history -- comfortably wider than any tranche bookahead.
    _FL_N = 1024

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
        # Fluid-booking queue state (fabric fast path): a bucketed
        # arrival-curve ring.  Flows book whole tranches ahead of the
        # event clock, so arrivals from different flows reach a shared
        # edge out of booking order; per-bucket byte accounting is
        # commutative, which keeps the discrete Lindley recurrence
        # q[j] = max(q[j-1] - rate*dt, 0) + a[j] correct up to bucket
        # quantization no matter the booking order.  A scalar
        # last/backlog integrator is identical for nondecreasing
        # arrivals but mis-estimates by up to a full buffer once
        # cross-flow skew approaches the drain time, manufacturing
        # phantom tail drops that packet mode never sees.
        bps = self._bps
        dt = 65536.0 / bps
        if config.buffer_bytes > 0:
            dt = max(dt, config.buffer_bytes / bps / 32.0)
        self._fl_bps = bps
        self._fl_dt = dt
        self._fl_drain = bps * dt
        self._fl_t0 = 0.0
        self._fl_a: list[float] | None = None
        self._fl_q: list[float] | None = None
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

    def serialization_time(self, size_bytes: int) -> float:
        return size_bytes / self._bps

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
        start = max(now, self._busy_until)
        length = packet.length
        self._m_offered.inc()
        self._m_bytes_offered.inc(length)

        # Serialization backlog at enqueue: data already queued but not yet
        # on the wire.  It is both the tail-drop criterion and the gauge /
        # ECN congestion signal.
        backlog = (start - now) * self._bps
        self._g_queue_delay.set(start - now)
        self._g_backlog.set(backlog)
        if self._buffer > 0 and backlog + length > self._buffer:
            # Bounded egress buffer overflow tail-drops the new packet.
            self._m_dropped.inc()
            self._m_tail_drops.inc()
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
            self._m_ecn_marked.inc()
            if self._trace.enabled:
                self._trace.counter(
                    "net_backlog", cat="net", track=self._track,
                    backlog_bytes=backlog,
                )

        done = start + length / self._bps
        self._busy_until = done

        if self.loss.drops(self.rng, length):
            # A wire (loss-model) drop still consumed serialization time,
            # unlike a tail drop; the distinct instant name keeps the two
            # separable in chaos traces.
            self._m_dropped.inc()
            if self._trace.enabled:
                self._trace.instant(
                    "loss_drop", cat="net", track=self._track,
                    psn=packet.psn, bytes=length,
                    **self._lineage(packet),
                )
            return done

        self._m_bytes_delivered.inc(length)
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
        sim.call_at(done + self._flight_delay(), self._deliver, packet)
        if self._dup > 0 and self.rng.random() < self._dup:
            # In-network duplication: the copy takes its own (jittered) path.
            self._m_duplicated.inc()
            sim.call_at(done + self._flight_delay(), self._deliver, packet)
        return done

    # -- fluid fast path -------------------------------------------------------

    def fluid_bulk_eligible(self) -> bool:
        """True when a self-clocked bulk segment may book this channel.

        The bulk fluid path (:mod:`repro.sim.fluid`) models a steady
        transfer whose packets are paced by the wire itself, so the real
        standing queue never exceeds a handful of MTUs.  Any feature that
        reacts to queue depth or perturbs per-packet timing (ECN marking,
        bounded buffers, jitter, duplication) is an epoch boundary by
        definition and forces packet mode.
        """
        cfg = self.config
        return (
            self._sink is not None
            and cfg.jitter_fraction == 0
            and cfg.duplicate_probability == 0
            and cfg.buffer_bytes == 0
            and cfg.ecn_threshold_bytes == 0
        )

    def fluid_admit(
        self, sizes: np.ndarray, *, at: float, msg_seq: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Book a whole back-to-back segment on the wire in one step.

        ``sizes`` are per-packet byte lengths serialized FIFO starting no
        earlier than ``at`` (and no earlier than the current booking
        horizon).  Returns ``(dones, dropped)``: absolute serialization-done
        times per packet and the wire-loss outcomes drawn via the loss
        model's vectorized ``drop_mask`` -- for Bernoulli/NoLoss models the
        draw stream is identical to per-packet ``drops()`` calls, so fluid
        and packet mode agree bit-for-bit on which packets die.

        The caller owns delivery (there is no per-packet ``_deliver``
        event); counters and gauges advance exactly as ``transmit`` would
        in aggregate, and a single ``fluid_segment`` trace record replaces
        the per-packet ``tx`` completes.
        """
        if not self.fluid_bulk_eligible():
            raise RuntimeError(f"{self.name}: channel not fluid-bulk eligible")
        n = len(sizes)
        total = int(sizes.sum())
        start0 = max(at, self._busy_until)
        dones = start0 + np.cumsum(sizes, dtype=np.float64) / (
            self.config.bytes_per_second
        )
        self._busy_until = float(dones[-1])
        dropped = self.loss.drop_mask(self.rng, sizes)
        lost_bytes = int(sizes[dropped].sum()) if dropped.any() else 0
        self._m_offered.inc(n)
        self._m_bytes_offered.inc(total)
        ndropped = int(dropped.sum())
        if ndropped:
            self._m_dropped.inc(ndropped)
        self._m_bytes_delivered.inc(total - lost_bytes)
        self._g_queue_delay.set(start0 - at)
        self._g_backlog.set((start0 - at) * self.config.bytes_per_second)
        if self._trace.enabled:
            self._trace.complete(
                "fluid_segment", cat="net", track=self._track,
                start=start0, end=float(dones[-1]), packets=n, bytes=total,
                dropped=ndropped, msg=msg_seq,
            )
        return dones, dropped

    @property
    def fluid_horizon(self) -> float:
        """How far ahead fluid bookings may safely land on this edge.

        Bookings further than this beyond the ring's retained history
        force a shift that discards older buckets, so tranche planners
        bound their bookahead by the smallest horizon along the path.
        """
        return self._FL_N * self._fl_dt * 0.25

    def _fluid_index(self, at: float) -> int:
        """Ring bucket for arrival time ``at``, shifting/clamping as needed.

        Bucket 0 is reserved as the recurrence base (``q[k-1]`` is the
        queue entering bucket ``k``), so the returned index is always
        >= 1; arrivals older than the retained history clamp to bucket 1.
        """
        if self._fl_a is None:
            self._fl_a = [0.0] * self._FL_N
            self._fl_q = [0.0] * self._FL_N
            self._fl_t0 = at - self._fl_dt
            return 1
        k = int((at - self._fl_t0) / self._fl_dt)
        if k < 1:
            return 1
        if k >= self._FL_N:
            return self._fluid_shift(k)
        return k

    def _fluid_shift(self, k: int) -> int:
        """Advance the ring so bucket ``k`` fits, keeping 3/4 of the span."""
        N = self._FL_N
        a = self._fl_a
        q = self._fl_q
        drain = self._fl_drain
        m = k - (N * 3) // 4
        if m >= N:
            # The whole retained window predates the booking: the queue
            # decayed through the gap; restart the ring from its remnant.
            v = q[N - 1] - (m - N) * drain
            if v < 0.0:
                v = 0.0
            self._fl_a = [0.0] * N
            nq = [0.0] * N
            j = 0
            while v > 0.0 and j < N:
                v -= drain
                if v < 0.0:
                    v = 0.0
                nq[j] = v
                j += 1
            self._fl_q = nq
        else:
            del a[:m]
            a.extend([0.0] * m)
            v = q[-1]
            del q[:m]
            for _ in range(m):
                v -= drain
                if v < 0.0:
                    v = 0.0
                q.append(v)
        self._fl_t0 += m * self._fl_dt
        return k - m

    def _fluid_seen(self, k: int, at: float) -> float:
        """Queue depth an arrival at ``at`` (bucket ``k``) queues behind."""
        lead = at - (self._fl_t0 + k * self._fl_dt)
        seen = self._fl_q[k - 1]
        if lead > 0.0:
            seen -= lead * self._fl_bps
            if seen < 0.0:
                seen = 0.0
        return seen + self._fl_a[k]

    def _fluid_push(self, k: int, size: float) -> None:
        """Add ``size`` bytes to bucket ``k`` and repair the recurrence."""
        a = self._fl_a
        q = self._fl_q
        drain = self._fl_drain
        a[k] += size
        v = q[k - 1]
        N = self._FL_N
        while k < N:
            v -= drain
            if v < 0.0:
                v = 0.0
            v += a[k]
            if v == q[k]:
                return
            q[k] = v
            k += 1

    def fluid_transmit_one(
        self, packet: Packet, *, at: float
    ) -> tuple[str, float]:
        """Single-packet admission booked at future time ``at``.

        The fabric fluid path resolves a whole multi-hop journey at send
        time: each hop is booked at the packet's computed arrival instant
        with full ``transmit`` semantics (tail drop, ECN mark, wire loss)
        against the booking ring.  Returns ``(outcome, done)`` where
        outcome is ``"ok"``, ``"tail_drop"`` or ``"loss"`` and ``done`` is
        the serialization-done time (``at`` for tail drops).  Delivery is
        the caller's job -- no event is scheduled here.
        """
        if self._sink is None:
            raise RuntimeError(f"{self.name}: no sink attached")
        bps = self.config.bytes_per_second
        k = self._fluid_index(at)
        backlog = self._fluid_seen(k, at)
        self._m_offered.inc()
        self._m_bytes_offered.inc(packet.length)
        self._g_queue_delay.set(backlog / bps)
        self._g_backlog.set(backlog)
        if (
            self.config.buffer_bytes > 0
            and backlog + packet.length > self.config.buffer_bytes
        ):
            self._m_dropped.inc()
            self._m_tail_drops.inc()
            if self._trace.enabled:
                self._trace.instant(
                    "tail_drop", cat="net", track=self._track,
                    psn=packet.psn, bytes=packet.length,
                    **self._lineage(packet),
                )
            return "tail_drop", at
        if (
            self.config.ecn_threshold_bytes > 0
            and backlog >= self.config.ecn_threshold_bytes
        ):
            packet.ce = True
            self._m_ecn_marked.inc()
            if self._trace.enabled:
                self._trace.counter(
                    "net_backlog", cat="net", track=self._track,
                    backlog_bytes=backlog,
                )
        self._fluid_push(k, float(packet.length))
        backlog += packet.length
        done = at + backlog / bps
        if done > self._busy_until:
            self._busy_until = done
        if self.loss.drops(self.rng, packet.length):
            self._m_dropped.inc()
            if self._trace.enabled:
                self._trace.instant(
                    "loss_drop", cat="net", track=self._track,
                    psn=packet.psn, bytes=packet.length,
                    **self._lineage(packet),
                )
            return "loss", done
        self._m_bytes_delivered.inc(packet.length)
        if self._trace.enabled:
            self._trace.complete(
                "tx", cat="net", track=self._track,
                start=at + backlog / bps, end=done,
                psn=packet.psn, bytes=packet.length,
                **self._lineage(packet),
            )
        return "ok", done

    def fluid_admit_chain(
        self,
        sizes: np.ndarray,
        arrivals: np.ndarray,
        *,
        msg_seq: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Book one flow's segments FIFO against the horizon in one call.

        The fabric fluid path sends a whole flow's segments down a shared
        path; booking them per call via :meth:`fluid_transmit_one` costs
        as much Python as the packet path minus the heap.  This variant
        runs the same admission logic -- tail drop against the standing
        backlog, ECN mark, wire loss (drawn per segment, in order, from
        the same stream), serialization chaining -- as one tight loop
        with counters accumulated locally and published in bulk.

        Returns ``(dones, ok, marked)``: per-segment serialization-done
        times (arrival time for tail drops, which never serialize), a
        delivered mask (False = tail drop or wire loss; wire-lost
        segments still occupy the wire), and an ECN CE mask.
        """
        if self._sink is None:
            raise RuntimeError(f"{self.name}: no sink attached")
        cfg = self.config
        bps = cfg.bytes_per_second
        buffer_bytes = cfg.buffer_bytes
        ecn_bytes = cfg.ecn_threshold_bytes
        loss = self.loss
        rng = self.rng
        n = len(sizes)
        dones = np.empty(n, dtype=np.float64)
        ok = np.zeros(n, dtype=bool)
        marked = np.zeros(n, dtype=bool)
        offered_bytes = 0
        delivered_bytes = 0
        ndropped = ntail = nmarked = 0
        backlog = 0.0
        if n and self._fl_a is None:
            self._fluid_index(float(arrivals[0]))
        # The ring helpers (_fluid_index/_fluid_seen/_fluid_push) are
        # inlined here with hoisted locals: this loop runs once per
        # segment-hop and is the fluid fast path's hot spot.
        a = self._fl_a
        q = self._fl_q
        t0 = self._fl_t0
        dt = self._fl_dt
        drain = self._fl_drain
        N = self._FL_N
        for j in range(n):
            at = float(arrivals[j])
            size = int(sizes[j])
            offered_bytes += size
            k = int((at - t0) / dt)
            if k < 1:
                k = 1
            elif k >= N:
                k = self._fluid_shift(k)
                a = self._fl_a
                q = self._fl_q
                t0 = self._fl_t0
            prev = q[k - 1]
            lead = at - t0 - k * dt
            if lead > 0.0:
                prev -= lead * bps
                if prev < 0.0:
                    prev = 0.0
            seen = prev + a[k]
            if buffer_bytes > 0 and seen + size > buffer_bytes:
                ntail += 1
                ndropped += 1
                dones[j] = at
                backlog = seen
                continue
            if ecn_bytes > 0 and seen >= ecn_bytes:
                marked[j] = True
                nmarked += 1
            a[k] += size
            v = q[k - 1]
            while k < N:
                v -= drain
                if v < 0.0:
                    v = 0.0
                v += a[k]
                if v == q[k]:
                    break
                q[k] = v
                k += 1
            backlog = seen + size
            dones[j] = at + backlog / bps
            if loss.drops(rng, size):
                ndropped += 1
                continue
            ok[j] = True
            delivered_bytes += size
        if n and dones[n - 1] > self._busy_until:
            self._busy_until = float(dones[n - 1])
        self._m_offered.inc(n)
        self._m_bytes_offered.inc(offered_bytes)
        if ndropped:
            self._m_dropped.inc(ndropped)
        if ntail:
            self._m_tail_drops.inc(ntail)
        if nmarked:
            self._m_ecn_marked.inc(nmarked)
        self._m_bytes_delivered.inc(delivered_bytes)
        self._g_queue_delay.set(backlog / bps)
        self._g_backlog.set(backlog)
        if self._trace.enabled:
            self._trace.complete(
                "fluid_segment", cat="net", track=self._track,
                start=float(arrivals[0]) if n else self.sim.now,
                end=float(dones[n - 1]) if n else self.sim.now,
                packets=n, bytes=offered_bytes,
                dropped=ndropped, msg=msg_seq,
            )
        return dones, ok, marked

    def fluid_admit_one(
        self, size: int, at: float, *, msg_seq: int | None = None
    ) -> tuple[float, bool, bool]:
        """Scalar :meth:`fluid_admit_chain`: one segment, no arrays.

        Single-segment flows dominate mice-heavy fabrics; spelling the
        n=1 case without ndarray construction keeps the fluid fast path
        fast.  Accounting, RNG draws and trace records are identical to
        a one-element chain call.  Returns ``(done, ok, marked)``.
        """
        if self._sink is None:
            raise RuntimeError(f"{self.name}: no sink attached")
        cfg = self.config
        bps = cfg.bytes_per_second
        k = self._fluid_index(at)
        seen = self._fluid_seen(k, at)
        self._m_offered.inc()
        self._m_bytes_offered.inc(size)
        if cfg.buffer_bytes > 0 and seen + size > cfg.buffer_bytes:
            self._g_queue_delay.set(seen / bps)
            self._g_backlog.set(seen)
            self._m_dropped.inc()
            self._m_tail_drops.inc()
            if self._trace.enabled:
                self._trace.complete(
                    "fluid_segment", cat="net", track=self._track,
                    start=at, end=at, packets=1, bytes=size,
                    dropped=1, msg=msg_seq,
                )
            return at, False, False
        marked = False
        if cfg.ecn_threshold_bytes > 0 and seen >= cfg.ecn_threshold_bytes:
            marked = True
            self._m_ecn_marked.inc()
        self._fluid_push(k, float(size))
        backlog = seen + size
        self._g_queue_delay.set(backlog / bps)
        self._g_backlog.set(backlog)
        done = at + (seen + size) / bps
        if done > self._busy_until:
            self._busy_until = done
        ok = not self.loss.drops(self.rng, size)
        if ok:
            self._m_bytes_delivered.inc(size)
        else:
            self._m_dropped.inc()
        if self._trace.enabled:
            self._trace.complete(
                "fluid_segment", cat="net", track=self._track,
                start=at, end=done, packets=1, bytes=size,
                dropped=0 if ok else 1, msg=msg_seq,
            )
        return done, ok, marked

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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Channel({self.name}, {self.config.bandwidth_bps / 1e9:g} Gbit/s)"


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
        loss_fwd: LossModel | None = None,
        loss_rev: LossModel | None = None,
        name: str = "link",
    ):
        self.forward = Channel(
            sim, config, rng=rng_fwd, loss=loss_fwd, name=f"{name}.fwd"
        )
        self.reverse = Channel(
            sim,
            config_rev if config_rev is not None else config,
            rng=rng_rev,
            loss=loss_rev,
            name=f"{name}.rev",
        )
        self.config = config
        self.name = name
