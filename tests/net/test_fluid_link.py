"""FluidLink.book against a brute-force Lindley queue, and call-shape parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ChannelConfig
from repro.common.units import KiB, MiB
from repro.net.channel import Channel
from repro.net.loss import BernoulliLoss
from repro.sim.engine import Simulator

BUFFER = 4 * MiB
ECN = 1 * MiB


def make_link(loss=None, seed=0):
    cfg = ChannelConfig(
        bandwidth_bps=100e9, distance_km=1.0,
        buffer_bytes=BUFFER, ecn_threshold_bytes=ECN,
    )
    ch = Channel(Simulator(), cfg, rng=np.random.default_rng(seed), loss=loss)
    ch.attach_sink(lambda packet: None)
    return ch.fluid, cfg.bytes_per_second


def book(link, sizes, arrivals, *args):
    """``link.book`` with its ``None`` flag lists spelled out."""
    times, ok, marked = link.book(sizes, arrivals, *args)
    # None stands for "all delivered" / "none marked", and only for that.
    assert ok is None or False in ok
    assert marked is None or True in marked
    n = len(sizes)
    return (
        times,
        [True] * n if ok is None else ok,
        [False] * n if marked is None else marked,
    )


def lindley_seen(admitted, at, bps):
    """Exact fluid queue (bytes) an arrival at ``at`` meets.

    Brute force: replay every admitted ``(arrival, size)`` no later than
    ``at`` in arrival order through W <- max(W - rate * gap, 0) + size.
    """
    w = 0.0
    last = 0.0
    for t, size in sorted((b for b in admitted if b[0] <= at), key=lambda b: b[0]):
        w = max(w - (t - last) * bps, 0.0) + size
        last = t
    return max(w - (at - last) * bps, 0.0)


def check_against_reference(link, bps, bookings, admitted):
    """Book one segment at a time; compare each admission with the exact
    queue over what the ring has ``admitted`` so far (extended in place).
    Returns how many admissions were clear of the tail-drop threshold.

    The documented quantization: the ring never under-estimates, and
    over-estimates by at most one bucket's drain plus the bytes already
    booked later into the same bucket (a later arrival in the same bucket
    is less than one bucket width away).
    """
    dt = link._dt
    drain = link._drain
    clear = 0
    for at, size in bookings:
        exact = lindley_seen(admitted, at, bps)
        later = sum(s for t, s in admitted if at < t <= at + dt)
        (done,), (ok,), (marked,) = book(link, [size], [at])
        tail_dropped = not ok  # no wire loss on this link
        if tail_dropped:
            assert done == at
            seen = link.channel._g_backlog.value
        else:
            seen = link.channel._g_backlog.value - size
            assert done == pytest.approx(at + (seen + size) / bps, rel=1e-12)
            admitted.append((at, size))
        slack = 1e-6 * BUFFER
        assert exact - slack <= seen <= exact + drain + later + slack
        # Decisions agree whenever the exact queue is a bucket clear.
        if exact + size > BUFFER:
            assert tail_dropped
        elif exact + size + drain + later <= BUFFER:
            assert not tail_dropped
            clear += 1
        if not tail_dropped:
            if exact >= ECN:
                assert marked
            elif exact + drain + later < ECN:
                assert not marked
    return clear


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=200.0),
            st.integers(min_value=1 * KiB, max_value=512 * KiB),
        ),
        min_size=1, max_size=80,
    )
)
def test_out_of_order_bookings_track_the_exact_queue(draws):
    """Arrivals in any booking order, from idle to past the tail-drop
    point (up to 40 MB offered against 26 MB of drain)."""
    link, bps = make_link()
    # The first booking anchors the ring; nothing may arrive before it.
    bookings = [(0.0, 64 * KiB)] + [(u * link._dt, size) for u, size in draws]
    check_against_reference(link, bps, bookings, [])


def test_ring_shift_keeps_the_queue():
    """A run several ring spans long with bounded skew, offered slightly
    above line rate: the ring shifts forward under the bookings and still
    tracks the exact queue through ECN marking and tail drop."""
    link, bps = make_link()
    dt = link._dt
    rng = np.random.default_rng(5)
    bookings = [(0.0, 64 * KiB)]
    for i in range(1, 900):
        skew = float(rng.uniform(-100.0, 100.0))  # buckets, < horizon
        size = int(rng.integers(64, 1024)) * KiB
        bookings.append((max(0.0, 4.0 * i + skew) * dt, size))
    assert check_against_reference(link, bps, bookings, []) > 500
    assert link._t0 > link.N * dt  # shifted past the first window
    stats = link.channel.stats
    assert stats.tail_drops > 20 and stats.ecn_marked > 100


def test_whole_window_restart_keeps_the_remnant():
    """A booking more than a ring beyond the retained window restarts it;
    a later out-of-order arrival still meets what the old window left."""
    link, bps = make_link()
    dt = link._dt
    admitted = []
    burst = [(1020.0 * dt, 512 * KiB)] * 7  # 3.5 MiB standing at ring end
    check_against_reference(link, bps, [(0.0, 64 * KiB)] + burst, admitted)
    t0 = link._t0
    check_against_reference(link, bps, [(1800.0 * dt, 64 * KiB)], admitted)
    assert link._t0 - t0 >= link.N * dt  # replaced, not shifted
    # 20 buckets after the burst, 1 MiB of it is still queued.
    late = 1040.0 * dt
    assert lindley_seen(admitted, late, bps) > 0.9 * MiB
    check_against_reference(link, bps, [(late, 64 * KiB)], admitted)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=60.0),
            st.integers(min_value=1 * KiB, max_value=512 * KiB),
        ),
        min_size=1, max_size=60,
    ),
    st.integers(min_value=0, max_value=2**31),
)
def test_one_call_equals_n_single_calls(draws, seed):
    """counters, gauges, RNG draws, times and masks -- bit for bit."""
    runs = []
    for batched in (True, False):
        link, _bps = make_link(loss=BernoulliLoss(0.2), seed=seed)
        sizes = [size for _u, size in draws]
        arrivals = [u * link._dt for u, _size in draws]
        if batched:
            out = book(link, sizes, arrivals, 7)
        else:
            parts = [book(link, [s], [t], 7) for s, t in zip(sizes, arrivals)]
            out = tuple([p[i][0] for p in parts] for i in range(3))
        ch = link.channel
        runs.append((
            out,
            ch.stats,
            ch._g_backlog.value,
            ch._g_queue_delay.value,
            ch.rng.bit_generator.state,
            link._t0, link._a, link._q,
        ))
    assert runs[0] == runs[1]


def test_no_sink_raises():
    ch = Channel(
        Simulator(), ChannelConfig(bandwidth_bps=100e9, distance_km=1.0),
        rng=np.random.default_rng(0),
    )
    with pytest.raises(RuntimeError, match="no sink"):
        ch.fluid.book([4096], [0.0])


def test_empty_call_publishes_nothing():
    link, _bps = make_link()
    assert link.book([], []) == ([], None, None)
    assert link.channel.stats.packets_offered == 0


def test_packet_mode_channel_carries_no_ring():
    link, _bps = make_link()
    assert "fluid" in vars(link.channel)
    ch = Channel(
        Simulator(), ChannelConfig(bandwidth_bps=100e9, distance_km=1.0),
        rng=np.random.default_rng(0),
    )
    assert "fluid" not in vars(ch)
