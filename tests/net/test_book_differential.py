"""Differential test: the one-pass ``FluidLink.book`` against the old one.

``ParentLink`` carries ``FluidLink.book`` and ``FluidLink._shift`` as they
stood before the rewrite: ``book`` returned serialization done times and
always-built ``ok`` / ``marked`` lists, the fabric's ``_book`` added each
hop's one-way delay afterwards, and ``_shift`` stepped the drain through
every new bucket.  It is kept here as the reference.

Hypothesis draws a buffered+ECN, unbuffered or Bernoulli-lossy edge and a
run of booking calls -- arrivals out of order within and across calls,
gaps long enough to shift the ring and to restart it from its remnant, a
random ``owd`` per call -- and both links must return the same times,
drop flags and mark flags and leave the same counters, gauges, trace
records, RNG state and ring (``_t0`` / ``_a`` / ``_q``), bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ChannelConfig
from repro.common.units import KiB, MiB
from repro.net.channel import Channel
from repro.net.fluid import FluidLink
from repro.net.loss import BernoulliLoss, NoLoss
from repro.sim.engine import Simulator
from repro.telemetry import RingBufferSink, Telemetry

from tests.net.test_fluid_link import book


class ParentLink(FluidLink):
    """``book`` and ``_shift`` before the one-pass rewrite, verbatim."""

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
            nq = [0.0] * N
            j = 0
            while v > 0.0 and j < N:
                v -= drain
                if v < 0.0:
                    v = 0.0
                nq[j] = v
                j += 1
            self._q = nq
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
        self._t0 += m * self._dt
        return k - m

    def book(
        self,
        sizes: Sequence[int],
        arrivals: Sequence[float],
        msg_seq: int | None = None,
    ) -> tuple[list[float], list[bool], list[bool]]:
        ch = self.channel
        if ch._sink is None:
            raise RuntimeError(f"{ch.name}: no sink attached")
        n = len(sizes)
        if n == 0:
            return [], [], []
        cfg = ch.config
        bps = cfg.bytes_per_second
        buffer_bytes = cfg.buffer_bytes
        ecn_bytes = cfg.ecn_threshold_bytes
        drops = ch.loss.drops
        # Read per call (a fault can swap the model): a lossless channel
        # draws nothing, so its per-segment call is skipped.
        lossy = type(ch.loss) is not NoLoss
        rng = ch.rng
        dones = list(arrivals)
        ok = [True] * n
        marked = [False] * n
        ntail = 0
        backlog = 0.0
        busy = ch._busy_until
        first = dones[0]
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
        for j in range(n):
            at = dones[j]
            size = sizes[j]
            # Arrivals older than the retained history clamp to bucket 1.
            k = int((at - t0) / dt)
            if k < 1:
                k = 1
            elif k >= N:
                k = self._shift(k)
                a = self._a
                q = self._q
                t0 = self._t0
            prev = q[k - 1]
            lead = at - t0 - k * dt
            if lead > 0.0:
                prev -= lead * bps
                if prev < 0.0:
                    prev = 0.0
            seen = prev + a[k]
            if buffer_bytes > 0 and seen + size > buffer_bytes:
                ntail += 1
                ok[j] = False
                backlog = seen
                continue
            if ecn_bytes > 0 and seen >= ecn_bytes:
                marked[j] = True
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
            done = dones[j] = at + backlog / bps
            if done > busy:
                busy = done
            if lossy and drops(rng, size):
                ok[j] = False
        ch._busy_until = busy
        self._publish(
            n, sum(sizes), sum(compress(sizes, ok)), ok.count(False), ntail,
            marked.count(True), backlog / bps, backlog, first, dones[-1],
            msg_seq,
        )
        return dones, ok, marked


def _channel(kind: str, seed: int) -> tuple[Channel, RingBufferSink]:
    ring = RingBufferSink(capacity=1 << 16)
    sim = Simulator(telemetry=Telemetry(trace=True, trace_sinks=[ring]))
    buffered = kind != "unbuffered"
    cfg = ChannelConfig(
        bandwidth_bps=100e9, distance_km=1.0,
        buffer_bytes=4 * MiB if buffered else 0,
        ecn_threshold_bytes=1 * MiB if buffered else 0,
    )
    loss = BernoulliLoss(0.2) if kind == "lossy" else None
    ch = Channel(sim, cfg, rng=np.random.default_rng(seed), loss=loss)
    ch.attach_sink(lambda packet: None)
    return ch, ring


def _parent_book(link, sizes, arrivals, msg_seq, owd):
    """The old call plus the ``done + owd`` step ``_book`` applied to it."""
    dones, ok, marked = link.book(sizes, arrivals, msg_seq)
    return [done + owd for done in dones], ok, marked


#: One booking call: how far (in buckets) the clock moves before it, the
#: call's one-way delay, and its segments as (skew in buckets, size).  A
#: gap past 1024 buckets shifts the ring, past 1792 it restarts it.
calls = st.tuples(
    st.one_of(
        st.floats(min_value=0.0, max_value=40.0),
        st.floats(min_value=900.0, max_value=2600.0),
    ),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e-3)),
    st.lists(
        st.tuples(
            st.floats(min_value=-60.0, max_value=60.0),
            st.integers(min_value=1 * KiB, max_value=512 * KiB),
        ),
        min_size=0, max_size=40,
    ),
)


def _differential(kind, draws, seed) -> tuple[FluidLink, list]:
    """Book ``draws`` on a fresh link and a fresh ``ParentLink``; compare.
    Returns the new link and what each call returned."""
    new_ch, new_ring = _channel(kind, seed)
    old_ch, old_ring = _channel(kind, seed)
    new = new_ch.fluid
    old = ParentLink(old_ch)
    dt = new._dt
    clock = 0.0
    out = []
    for seq, (gap, owd, segments) in enumerate(draws):
        clock += gap
        sizes = [size for _skew, size in segments]
        arrivals = [max(clock + skew, 0.0) * dt for skew, _size in segments]
        out.append(book(new, sizes, arrivals, seq, owd))
        assert out[-1] == _parent_book(old, sizes, arrivals, seq, owd)
    assert new_ch.stats == old_ch.stats
    assert new_ch._g_backlog.value == old_ch._g_backlog.value
    assert new_ch._g_queue_delay.value == old_ch._g_queue_delay.value
    assert new_ch._busy_until == old_ch._busy_until
    assert new_ch.rng.bit_generator.state == old_ch.rng.bit_generator.state
    assert (new._t0, new._a, new._q) == (old._t0, old._a, old._q)
    assert new_ring.events == old_ring.events
    return new, out


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["buffered_ecn", "unbuffered", "lossy"]),
    st.lists(calls, min_size=1, max_size=12),
    st.integers(min_value=0, max_value=2**31),
)
def test_book_equals_the_parent_bit_for_bit(kind, draws, seed):
    _differential(kind, draws, seed)


def test_shift_and_restart_from_a_standing_remnant():
    """3.5 MiB standing at the ring's end, then a booking a shift away and
    one a whole window away: both ``_shift`` branches drain a nonzero
    remnant into the new buckets, and a late arrival still meets (and is
    marked by) what the burst left."""
    burst = [(0.0, 512 * KiB)] * 7
    for gap, restarted in ((300.0, False), (780.0, True)):
        draws = [
            (0.0, 0.0, [(0.0, 64 * KiB)]),
            (1020.0, 2e-6, burst),
            (gap, 5e-6, [(0.0, 64 * KiB)]),
            (0.0, 0.0, [(-gap + 8.0, 64 * KiB), (1.0, 128 * KiB)]),
        ]
        link, out = _differential("buffered_ecn", draws, 0)
        assert (link._t0 >= link.N * link._dt) == restarted
        _times, ok, marked = out[-1]
        assert ok == [True, True] and marked == [True, False]


def test_a_standing_queue_across_the_ring_end():
    """A stream offered at twice the drain rate crosses the ring's end
    twice: the segment that shifts the ring meets the queue standing in
    the buckets it kept, up to ECN marks and tail drops."""
    stream = [(2.0 * i, 512 * KiB) for i in range(60)]
    draws = [(0.0, 0.0, [(0.0, 64 * KiB)]), (960.0, 1e-6, stream)]
    draws += [(800.0, 3e-6, stream)]
    link, _out = _differential("buffered_ecn", draws, 0)
    stats = link.channel.stats
    assert link._t0 > 900.0 * link._dt  # two shifts: 0 -> 256 -> 992
    assert stats.ecn_marked > 20 and stats.tail_drops > 10
