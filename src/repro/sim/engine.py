"""Deterministic discrete-event simulation engine.

The kernel is intentionally minimal: an event heap keyed by
``(time, sequence)`` (sequence breaks ties deterministically) and one-shot
:class:`Event` futures.

Heap entries are ``(time, seq, fn, arg)`` tuples of four kinds:

* **event entries** (``fn is None``, ``arg`` an :class:`Event`): the
  dispatch marks the event processed and runs its callbacks list -- what
  ``succeed``/``fail``/``timeout`` push;
* **callback entries** (``fn(*arg)``): no ``Event`` and no callbacks list
  -- what ``call_at``/``call_in`` push, once per packet-hop;
* **poll ticks**: the callback entry of a :class:`PollTimer`, which
  re-pushes itself every quantum until its predicate holds and then runs
  its waiters in the same dispatch -- the ``while not cond: yield
  timeout(q)`` idiom without an ``Event`` and a generator hop per tick;
* **timer expiries**: the callback entry of a :class:`Timer`, live or
  cancelled -- ``any_of([timeout(d), wake])`` without the ``Event``, the
  gate and the closure per wait.

Whatever the kind, every scheduling consumes exactly one ``_seq`` at the
point in program order where it is made, so a cheaper entry kind cannot
reorder same-instant work (``docs/simulation.md`` has the argument).

Everything under ``repro`` waits in callbacks (``call_in``, :class:`Timer`,
``Event.callbacks``).  :class:`Process`, :meth:`Simulator.process` and
:meth:`Simulator.any_of` -- generator coroutines that ``yield`` events --
remain only for the ``bench/`` client scripts and the generator references
the tests keep beside each callback that replaced one.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import Any

from repro.common.errors import ReproError
from repro.telemetry import Telemetry


class SimulationError(ReproError):
    """The simulation reached an inconsistent state (e.g. deadlock)."""


@dataclass(frozen=True)
class SimConfig:
    """Engine-level feature switches shared by every component of a run.

    ``fluid`` opts a fabric run into the fluid fast path: a
    :class:`~repro.fabric.service.FabricService` books a flow's segments
    whole along its path (:class:`~repro.net.fluid.FluidLink`) instead of
    relaying one heap event per packet.  Packet mode (``fluid=False``) is
    the default and keeps same-seed traces byte-identical; a pair whose
    path cannot be booked fluidly stays on the packet relay.
    """

    fluid: bool = False


#: ``Event._state`` values.  The engine's own paths compare them directly;
#: the ``triggered``/``processed`` properties are the public spelling and
#: cost a call each.
_PENDING, _TRIGGERED, _PROCESSED = 0, 1, 2


class Event:
    """A one-shot future that fires at most once with a value or an error.

    Callbacks appended to :attr:`callbacks` run when the event is processed
    by the simulator loop.  Processes waiting on the event are resumed with
    the event's value (or have the error thrown into them).
    """

    __slots__ = ("sim", "callbacks", "_value", "_error", "_state")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._error: BaseException | None = None
        self._state = _PENDING

    @property
    def triggered(self) -> bool:
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        return self._state != _PENDING and self._error is None

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("event value read before trigger")
        if self._error is not None:
            raise self._error
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not delay >= 0:  # negated so NaN is caught too
            raise SimulationError(f"delay must be >= 0, got {delay}")
        self._state = _TRIGGERED
        self._value = value
        sim = self.sim
        heappush(sim._heap, (sim.now + delay, sim._seq, None, self))
        sim._seq += 1
        return self

    def fail(self, error: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire with an error after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not delay >= 0:  # negated so NaN is caught too
            raise SimulationError(f"delay must be >= 0, got {delay}")
        self._state = _TRIGGERED
        self._error = error
        sim = self.sim
        heappush(sim._heap, (sim.now + delay, sim._seq, None, self))
        sim._seq += 1
        return self

    def _fire(self) -> None:
        """Dispatch: mark processed and run the callbacks registered so far."""
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)


class Process(Event):
    """A running generator coroutine; also an Event that fires on return.

    Nothing cancels a parked process from outside: a generator that must
    stop re-checks a flag after each ``yield``; a cancellable wait is a
    :class:`Timer`.
    """

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any]):
        super().__init__(sim)
        self._gen = gen
        # Bootstrap: resume the generator at time now.
        boot = Event(sim)
        boot.callbacks.append(self._resume)
        boot.succeed(None)

    def _resume(self, event: Event) -> None:
        try:
            if event._error is not None:
                nxt = self._gen.throw(event._error)
            else:
                nxt = self._gen.send(event._value)
        except StopIteration as stop:
            super().succeed(stop.value)
            return
        if not isinstance(nxt, Event):
            raise SimulationError(
                f"process yielded {type(nxt).__name__}, expected Event"
            )
        if nxt._state == _PROCESSED:
            # Already fired and dispatched: resume immediately via a fresh
            # event so ordering stays heap-driven.
            relay = Event(self.sim)
            relay.callbacks.append(self._resume)
            if nxt._error is not None:
                relay.fail(nxt._error)
            else:
                relay.succeed(nxt._value)
        else:
            nxt.callbacks.append(self._resume)


class PollTimer(Event):
    """Fires once ``predicate()`` holds, checked every ``quantum`` seconds.

    The heap-side replacement for ``while not predicate(): yield
    sim.timeout(quantum)``: one callback entry whose tick re-pushes itself
    at ``now + quantum`` exactly where the loop would have called
    ``timeout`` (so ``_seq`` allocation is the same by construction), and
    whose final tick runs the waiters in the same dispatch, as the loop's
    generator would have carried on.  Created by
    :meth:`Simulator.poll_until`.

    With ``after``, an event the predicate cannot hold before, the poll is
    *gated*: nothing is on the heap until ``after`` is dispatched, and the
    poll then rejoins its own grid at the first tick later than that
    instant -- every tick it skipped would have evaluated a false
    predicate.  The grid is replayed by the same repeated ``+ quantum``
    the ticks would have done (``start + k * quantum`` differs in the last
    bit, and tick times are in every trace).
    """

    __slots__ = ("_predicate", "_quantum", "_start")

    def __init__(
        self,
        sim: "Simulator",
        predicate: Callable[[], bool],
        quantum: float,
        after: Event | None = None,
    ):
        super().__init__(sim)
        self._predicate = predicate
        self._quantum = quantum
        if predicate():
            # The loop's zero-iteration case: nothing reaches the heap.
            self._state = _PROCESSED
            return
        self._state = _TRIGGERED
        if after is None or after._state != _PENDING:
            self._rearm()
        else:
            self._start = sim.now
            after.callbacks.append(self._ungate)

    def _rearm(self) -> None:
        sim = self.sim
        heappush(sim._heap, (sim.now + self._quantum, sim._seq, self._tick, ()))
        sim._seq += 1

    def _ungate(self, _after: Event) -> None:
        sim = self.sim
        now = sim.now
        quantum = self._quantum
        tick = self._start + quantum
        while tick <= now:
            tick += quantum
        heappush(sim._heap, (tick, sim._seq, self._tick, ()))
        sim._seq += 1

    def _tick(self) -> None:
        if self._predicate():
            self._fire()
        else:
            self._rearm()


class Timer:
    """A cancellable, re-armable callback timer: ``fn(*args)`` on expiry.

    The heap-side replacement for ``any_of([timeout(d), wake])`` where
    nothing but the waiter itself looks at the result: no ``Event``, no
    gate, no closure per wait.  Created by :meth:`Simulator.timer`.

    :meth:`arm` pushes one callback entry at ``now + delay`` -- the time
    and the one ``_seq`` a ``timeout(delay)`` made at that point took --
    and supersedes the expiry armed before; :meth:`cancel` drops the
    pending expiry.  Cancellation is lazy: a superseded entry stays on
    the heap and is dispatched at its instant as a no-op, so it still
    advances the clock a drained ``run()`` ends on and still crosses the
    sampler's window boundary, exactly as the ``timeout`` that lost its
    ``any_of`` did (both are in every same-seed digest).
    """

    __slots__ = ("sim", "_fn", "_args", "_live")

    def __init__(self, sim: "Simulator", fn: Callable[..., None], args: tuple):
        self.sim = sim
        self._fn = fn
        self._args = args
        #: Token of the one entry allowed to fire; 0 = disarmed.
        self._live = 0

    @property
    def armed(self) -> bool:
        """Whether an expiry is pending."""
        return self._live != 0

    def arm(self, delay: float) -> None:
        """Expire ``delay`` seconds from now, instead of whenever it was to."""
        if not delay >= 0:  # negated so NaN is caught too
            raise SimulationError(f"delay must be >= 0, got {delay}")
        sim = self.sim
        self._live = seq = sim._seq + 1  # unique per entry, never 0
        heappush(sim._heap, (sim.now + delay, sim._seq, self._expire, (seq,)))
        sim._seq = seq

    def cancel(self) -> None:
        """Drop the pending expiry, if any (its heap entry dies in place)."""
        self._live = 0

    def expire_now(self, _event: Event | None = None) -> None:
        """Expire now if armed: an event's side of the race (its callback)."""
        if self._live:
            self._expire(self._live)

    def _expire(self, token: int) -> None:
        if token == self._live:
            self._live = 0
            self._fn(*self._args)


#: ``run()``'s stand-in target when it is not waiting for an event.
_NEVER = Event(None)  # type: ignore[arg-type]


class Simulator:
    """Event loop with a simulated clock starting at ``t = 0`` seconds.

    Every simulator carries a :class:`~repro.telemetry.Telemetry` facade
    (``sim.telemetry``): components register metrics and emit trace events
    through it, stamped with this simulator's clock.  Pass a pre-configured
    facade to enable tracing or disable metrics for a run.
    """

    def __init__(
        self,
        *,
        telemetry: Telemetry | None = None,
        config: SimConfig | None = None,
    ):
        self.config = config if config is not None else SimConfig()
        #: Current simulated time in seconds.  A plain attribute, not a
        #: property: it is read on every hop of every packet.  Only
        #: :meth:`run` and :meth:`step` write it; everything else reads.
        self.now = 0.0
        #: ``(time, seq, fn, arg)``: ``fn is None`` marks an event entry
        #: (``arg`` is the Event), anything else is called as ``fn(*arg)``.
        self._heap: list[tuple[float, int, Callable | None, Any]] = []
        self._seq = 0
        #: ``packet_uid()`` is the next :attr:`~repro.net.packet.Packet.uid`
        #: of this simulation.  Per simulator, so two runs in one process
        #: number their packets alike.
        self.packet_uid: Callable[[], int] = itertools.count().__next__
        #: Optional lazy windowed sampler / wall-clock profiler hooks.
        #: Disarmed cost is one attribute load (``_hooked``) per dispatch;
        #: neither may schedule events or draw RNG (determinism invariant).
        self._sampler = None
        self._profiler = None
        self._hooked = False
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.telemetry.bind(self)
        if self.telemetry.timeseries is not None:
            self.attach_sampler(self.telemetry.timeseries)
        if self.telemetry.profiler is not None:
            self.attach_profiler(self.telemetry.profiler)

    # -- instrumentation hooks -------------------------------------------------

    def attach_sampler(self, sampler) -> None:
        """Arm a :class:`~repro.telemetry.timeseries.TimeseriesSampler`.

        The sampler's windows are closed lazily on dispatch, right after
        the clock advances and *before* the entry's callbacks run, so a
        window ending at boundary ``B`` reflects state as of the last
        event before ``B``.  Event-free and RNG-free by contract.  May be
        attached mid-run: the very next dispatch honours it.
        """
        if self._sampler is not None and self._sampler is not sampler:
            raise SimulationError("a timeseries sampler is already attached")
        sampler.bind(self)
        self._sampler = sampler
        self._hooked = True

    def attach_profiler(self, profiler) -> None:
        """Arm a :class:`~repro.sim.profile.SimProfiler` on dispatch."""
        if self._profiler is not None and self._profiler is not profiler:
            raise SimulationError("a profiler is already attached")
        profiler.bind(self)
        self._profiler = profiler
        self._hooked = True

    # -- event creation -------------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event, to be triggered by user code."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires ``delay`` seconds from now.

        Costs one ``Event`` (with its callbacks list) and one heap entry;
        use :meth:`call_in` when nothing waits on the result.
        """
        if not delay >= 0:  # negated so NaN is caught too
            raise SimulationError(f"delay must be >= 0, got {delay}")
        ev = Event(self)
        ev._state = _TRIGGERED
        ev._value = value
        heappush(self._heap, (self.now + delay, self._seq, None, ev))
        self._seq += 1
        return ev

    def process(self, gen: Generator[Event, Any, Any]) -> Process:
        """Start a generator as a concurrent process (``bench/`` and tests only)."""
        return Process(self, gen)

    def call_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated ``time``.

        A callback-only heap entry: one tuple, no ``Event``, no callbacks
        list and -- when the target takes its arguments here -- no closure.
        Nothing can wait on it and there is no handle to cancel it.
        """
        now = self.now
        # Negated so a NaN time is caught too: pushed, it would break the
        # heap's order silently (the clock runs backwards, entries strand).
        if not time >= now:
            raise SimulationError(f"cannot schedule at {time}: now is {now}")
        # The entry's time is now + (time - now), not ``time``: call_at has
        # always gone through a relative delay, the two can differ in the
        # last bit, and heap times are part of every same-seed trace.
        heappush(self._heap, (now + (time - now), self._seq, fn, args))
        self._seq += 1

    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds (see :meth:`call_at`)."""
        # call_at(now + delay), inlined: same guard, same two roundings.
        now = self.now
        time = now + delay
        if not time >= now:
            raise SimulationError(
                f"cannot schedule {delay} s from now: {time} is not >= {now}"
            )
        heappush(self._heap, (now + (time - now), self._seq, fn, args))
        self._seq += 1

    def timer(self, fn: Callable[..., None], *args: Any) -> Timer:
        """A disarmed :class:`Timer` that will call ``fn(*args)`` on expiry."""
        return Timer(self, fn, args)

    def poll_until(
        self,
        predicate: Callable[[], bool],
        quantum: float,
        *,
        after: Event | None = None,
    ) -> PollTimer:
        """An event that fires at the first ``quantum`` tick where ``predicate()`` holds.

        One re-arming heap entry (see :class:`PollTimer`) instead of a
        ``timeout`` per tick.  If the predicate already holds the returned
        event is already processed and nothing was scheduled: the caller
        carries on instead of hanging its continuation on the event (a
        process yielding it would pay a relay dispatch).

        ``after`` names an event the predicate cannot hold before.  While
        it is untriggered the poll keeps off the heap, and on its dispatch
        resumes at the bit-identical instants the ungated poll would have
        ticked at; an already triggered ``after`` changes nothing.
        """
        if not quantum > 0:  # negated so NaN is caught too
            raise SimulationError(f"poll quantum must be > 0, got {quantum}")
        return PollTimer(self, predicate, quantum, after)

    def any_of(self, events: list[Event]) -> Event:
        """An event that fires when the first of ``events`` fires."""
        gate = Event(self)
        if not events:
            raise SimulationError("any_of requires at least one event")

        def _done(e: Event) -> None:
            if gate._state != _PENDING:
                return
            if e._error is not None:
                gate.fail(e._error)
            else:
                gate.succeed(e._value)

        for ev in events:
            if ev._state == _PROCESSED:
                _done(ev)
            else:
                ev.callbacks.append(_done)
        return gate

    # -- running ---------------------------------------------------------------

    def step(self) -> None:
        """Process the single next heap entry."""
        if not self._heap:
            raise SimulationError("no scheduled events")
        time, _seq, fn, arg = heappop(self._heap)
        self.now = time
        self._dispatch(time, fn, arg)

    def _dispatch(self, time: float, fn: Callable | None, arg: Any) -> None:
        """Run one popped entry, honouring the sampler and profiler hooks."""
        sampler = self._sampler
        if sampler is not None and time >= sampler.next_deadline:
            sampler.poll(time)
        profiler = self._profiler
        if profiler is None:
            if fn is not None:
                fn(*arg)
            else:
                arg._fire()
        elif fn is not None:
            profiler.call(fn, *arg)
        else:
            arg._state = _PROCESSED
            callbacks, arg.callbacks = arg.callbacks, []
            for cb in callbacks:
                profiler.call(cb, arg)

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the heap drains, a deadline passes, or an event fires.

        ``until`` may be ``None`` (drain), a float (absolute simulated time)
        or an :class:`Event` (run until it is processed; returns its value).
        """
        waiting = isinstance(until, Event)
        target = until if waiting else _NEVER
        deadline = float("inf") if waiting or until is None else float(until)
        if not deadline >= self.now:  # negated so NaN is caught too
            raise SimulationError(f"deadline {deadline} is not >= now ({self.now})")
        # The dispatch loop, inlined: :meth:`step` without the calls.  Hooks
        # are re-read on every pop so one attached mid-run takes effect.
        heap = self._heap
        while target._state != _PROCESSED and heap and heap[0][0] <= deadline:
            time, _seq, fn, arg = heappop(heap)
            self.now = time
            if self._hooked:
                self._dispatch(time, fn, arg)
            elif fn is not None:
                fn(*arg)
            else:
                arg._state = _PROCESSED
                callbacks, arg.callbacks = arg.callbacks, []
                for cb in callbacks:
                    cb(arg)
        if waiting:
            if target._state != _PROCESSED:
                raise SimulationError(
                    "deadlock: event loop drained before target event fired"
                )
            return target.value
        if until is not None:
            self.now = deadline
        if self._sampler is not None:
            # Close any windows the final inter-event gap left open (the
            # lazy poll only runs when a *later* event crosses a boundary).
            self._sampler.poll(self.now)
        return None
