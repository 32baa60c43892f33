"""Fluid booking on one channel: whole segments admitted without events.

A :class:`FluidLink` is the fabric fluid fast path's view of a
:class:`~repro.net.channel.Channel` (``channel.fluid``, built on first
use).  :meth:`FluidLink.book` publishes to the channel's own counters,
gauges and trace track.  Flows book whole tranches ahead of the event
clock, so arrivals from different flows reach an edge out of booking
order.  The link keeps a ring of time buckets holding per-bucket arrival
bytes ``a[j]`` and the queue depth at bucket end
``q[j] = max(q[j-1] - rate*dt, 0) + a[j]`` (a discrete Lindley
recurrence).  Byte additions commute, so queue depth is right up to
bucket quantization whatever the booking order; a scalar last/backlog
integrator is identical for nondecreasing arrivals but mis-estimates by
up to a full buffer once cross-flow skew approaches the drain time,
manufacturing tail drops packet mode never sees.

Delivery is the caller's job; no event is scheduled here.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import inf
from typing import TYPE_CHECKING

from repro.net.loss import NoLoss

if TYPE_CHECKING:
    from repro.net.channel import Channel


class FluidLink:
    """Arrival-curve ring and bulk admission for one channel."""

    #: Buckets in the ring.  With the bucket width below this spans
    #: several milliseconds of arrival history -- comfortably wider than
    #: any tranche bookahead.
    N = 1024

    def __init__(self, channel: Channel):
        self.channel = channel
        bps = channel.config.bytes_per_second
        # One 64 KiB segment's serialization, or 1/32 of the buffer's
        # drain time on buffered edges.
        dt = 65536.0 / bps
        if channel.config.buffer_bytes > 0:
            dt = max(dt, channel.config.buffer_bytes / bps / 32.0)
        self._dt = dt
        self._drain = bps * dt
        #: How far ahead of the ring's history a booking may safely land.
        #: A booking further out forces a shift that discards older
        #: buckets, so tranche planners bound their bookahead by the
        #: smallest horizon along the path.
        self.horizon = self.N * dt * 0.25
        self._t0 = 0.0
        self._a: list[float] | None = None
        self._q: list[float] | None = None

    def _shift(self, k: int) -> int:
        """Advance the ring so bucket ``k`` fits, keeping 3/4 of the span."""
        N = self.N
        a = self._a
        q = self._q
        drain = self._drain
        m = k - (N * 3) // 4
        if m >= N:
            # The whole retained window predates the booking: the queue
            # decayed through the gap; restart the ring from its remnant.
            v = q[N - 1] - (m - N) * drain
            if v < 0.0:
                v = 0.0
            self._a = [0.0] * N
            q.clear()
            fill = N
        else:
            del a[:m]
            a.extend([0.0] * m)
            v = q[-1]
            del q[:m]
            fill = m
        # Drain the remnant into the new buckets; once it is empty every
        # later bucket is max(0 - drain, 0) = 0.
        while v > 0.0 and fill:
            v -= drain
            if v < 0.0:
                v = 0.0
            q.append(v)
            fill -= 1
        q.extend([0.0] * fill)
        self._t0 += m * self._dt
        return k - m

    def book(
        self,
        sizes: Sequence[int],
        arrivals: Sequence[float],
        msg_seq: int | None = None,
        owd: float = 0.0,
    ) -> tuple[list[float], list[bool] | None, list[bool] | None]:
        """Admit segments of ``sizes`` bytes arriving at ``arrivals``.

        Each segment gets ``Channel.transmit``'s admission against the
        ring: tail drop when the queue it meets plus itself overflows the
        buffer, ECN mark at the threshold, the bytes pushed into its
        bucket, then a wire-loss draw (per segment, in order, from the
        channel's stream).  Returns ``(times, ok, marked)``: arrivals at
        the next hop, serialization done + ``owd`` (a tail drop never
        serializes: its done time is its arrival), delivered flags (False
        = tail drop or wire loss; a wire-lost segment still occupied the
        wire) or ``None`` if all were, and CE-mark flags or ``None`` if
        none was.  One call with n segments is n one-segment calls, except
        that it writes one ``fluid_segment`` record instead of n.
        """
        ch = self.channel
        if ch._sink is None:
            raise RuntimeError(f"{ch.name}: no sink attached")
        n = len(sizes)
        if n == 0:
            return [], None, None
        bps = ch._bps
        cap = ch._buffer if ch._buffer > 0 else inf
        ecn = ch._ecn if ch._ecn > 0 else inf
        drops = ch.loss.drops
        # Read per call (a fault can swap the model): a lossless channel
        # draws nothing, so its per-segment call is skipped.
        lossy = type(ch.loss) is not NoLoss
        rng = ch.rng
        times: list[float] = []
        push = times.append
        ok = marked = None
        ntail = 0
        lost = 0
        backlog = 0.0
        busy = ch._busy_until
        first = arrivals[0]
        if self._a is None:
            # Bucket 0 is the recurrence base (q[k-1] is the queue
            # entering bucket k), so the first arrival lands in bucket 1.
            self._a = [0.0] * self.N
            self._q = [0.0] * self.N
            self._t0 = first - self._dt
        a = self._a
        q = self._q
        t0 = self._t0
        dt = self._dt
        drain = self._drain
        N = self.N
        # A segment's index is len(times) until its time is pushed.
        for size, at in zip(sizes, arrivals):
            x = at - t0
            # Arrivals older than the retained history clamp to bucket 1.
            k = int(x / dt)
            if k < 1:
                k = 1
            elif k >= N:
                k = self._shift(k)
                a = self._a
                q = self._q
                t0 = self._t0
                x = at - t0
            prev = base = q[k - 1]
            lead = x - k * dt
            if lead > 0.0:
                prev -= lead * bps
                if prev < 0.0:
                    prev = 0.0
            seen = prev + a[k]
            if seen + size > cap:
                if ok is None:
                    ok = [True] * n
                ok[len(times)] = False
                ntail += 1
                lost += size
                backlog = seen
                done = at
                push(at + owd)
                continue
            if seen >= ecn:
                if marked is None:
                    marked = [False] * n
                marked[len(times)] = True
            a[k] += size
            v = base
            try:
                while True:
                    v -= drain
                    if v < 0.0:
                        v = 0.0
                    v += a[k]
                    if v == q[k]:
                        break
                    q[k] = v
                    k += 1
            except IndexError:  # propagated through the ring's last bucket
                pass
            backlog = seen + size
            done = at + backlog / bps
            if done > busy:
                busy = done
            if lossy and drops(rng, size):
                if ok is None:
                    ok = [True] * n
                ok[len(times)] = False
                lost += size
            push(done + owd)
        ch._busy_until = busy
        offered = sum(sizes)
        self._publish(
            n, offered, offered - lost, ok.count(False) if ok else 0, ntail,
            marked.count(True) if marked else 0, backlog / bps, backlog,
            first, done, msg_seq,
        )
        return times, ok, marked

    def _publish(
        self, n, offered, delivered, ndropped, ntail, nmarked,
        delay, backlog, start, end, msg_seq,
    ) -> None:
        """Advance the channel's counters and gauges as n ``transmit``
        calls would in aggregate; one ``fluid_segment`` record stands in
        for the per-packet ``tx`` completes."""
        ch = self.channel
        ch._m_offered.value += n
        ch._m_bytes_offered.value += offered
        ch._m_dropped.value += ndropped
        ch._m_tail_drops.value += ntail
        ch._m_ecn_marked.value += nmarked
        ch._m_bytes_delivered.value += delivered
        ch._g_queue_delay.value = delay
        ch._g_backlog.value = backlog
        if ch._trace.enabled:
            ch._trace.complete(
                "fluid_segment", cat="net", track=ch._track,
                start=start, end=end, packets=n, bytes=offered,
                dropped=ndropped, msg=msg_seq,
            )
