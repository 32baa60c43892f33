"""A fixed reference computation: how fast is this machine right now?

The sandbox this benchmark runs in changes speed by up to 1.6x for tens
of seconds at a time (shared host), which is wider than any regression
bound.  Every host-time metric is therefore reported *at reference
speed*: the measured seconds, net of the time spent here, multiplied by
how fast a fixed slice of work ran during the same interval compared to
``NOMINAL_S``.  While a yardstick is armed (a ``with`` block) a slice
runs every ``PERIOD`` host seconds from a ``SIGALRM`` handler, so a speed
change in the middle of a round is seen and the program under test needs
no hook of any kind: timed rounds run the simulator exactly as a user
would.

The slice is a miniature event loop written against the standard library
only -- heap, closures, small objects, a dict -- so it slows down with
the machine the way the simulator does, yet no change to ``src/`` can
make it faster.  Raw, unscaled seconds are kept beside every scaled one.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: Host seconds one slice takes on this sandbox when the host is quiet.
#: A constant of the benchmark: changing it rescales every host-time
#: metric, so it is never tuned.
NOMINAL_S = 0.0022

#: Host seconds between slices while a yardstick is armed.
PERIOD = 0.1

_EVENTS = 1500


class _Event:
    __slots__ = ("callbacks", "value")

    def __init__(self):
        self.callbacks = []
        self.value = None


def one_slice() -> int:
    """The reference work: ``_EVENTS`` chained timer events plus garbage."""
    heap: list = []
    state: dict = {}
    now = 0.0
    seq = 0
    fired = 0

    def schedule(delay, callback):
        nonlocal seq
        event = _Event()
        event.callbacks.append(callback)
        heapq.heappush(heap, (now + delay, seq, event))
        seq += 1

    def tick(event):
        nonlocal fired
        fired += 1
        state[fired & 63] = (fired, event)
        if fired < _EVENTS:
            schedule(1e-6 * (fired % 7), tick)
            if fired % 3 == 0:
                schedule(1e-3, lambda _event: None)  # a timer nobody waits on

    schedule(0.0, tick)
    while heap:
        now, _, event = heapq.heappop(heap)
        for callback in event.callbacks:
            callback(event)
    return fired


class Yardstick:
    """Slice timings over one measured interval.

    ``with Yardstick() as yard:`` takes a slice, then one every ``PERIOD``
    until the block ends; ``yard.sample()`` takes one on demand.  Time
    intervals inside the block are read off ``yard.clock``, which stands
    still during slices.  Only the main thread may arm one, and only one
    at a time (the interval timer is per process).
    """

    def __init__(self) -> None:
        self.slices: list[float] = []
        #: Host seconds spent in slices so far.
        self.spent = 0.0
        self._sampling = False
        self._previous_handler = None

    def sample(self) -> None:
        if self._sampling:  # the timer fired inside an on-demand slice
            return
        self._sampling = True
        try:
            start = time.perf_counter()
            one_slice()
            taken = time.perf_counter() - start
            self.slices.append(taken)
            self.spent += taken
        finally:
            self._sampling = False

    def clock(self) -> float:
        """``time.perf_counter`` net of the time spent in slices."""
        return time.perf_counter() - self.spent

    def __enter__(self) -> "Yardstick":
        self.sample()
        self._previous_handler = signal.signal(
            signal.SIGALRM, lambda signum, frame: self.sample()
        )
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    @property
    def speed(self) -> float:
        """Machine speed over the slices taken so far, 1.0 = reference.

        Slices are evenly spaced in host time and work done is the
        integral of speed over time, so the mean is taken over speeds
        (reciprocal slice times), not over slice times.
        """
        return statistics.fmean(NOMINAL_S / s for s in self.slices)
