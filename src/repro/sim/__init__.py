"""Discrete-event simulation kernel.

A deliberately small, dependency-free DES engine in the style of SimPy:

* :class:`Simulator` owns the event heap and the simulated clock.
* :class:`Event` is a one-shot future; :meth:`Simulator.timeout` creates an
  event that fires after a simulated delay.
* :class:`PollTimer` (:meth:`Simulator.poll_until`) is an event that fires
  once a predicate holds, checked on a fixed grid by one re-arming heap
  entry; :meth:`Simulator.call_at` schedules a bare callback with no event.
* Components wait in callbacks (``call_in``, ``Timer``, ``Event.callbacks``);
  :class:`Process` wraps a generator that ``yield``\\ s events, for the
  ``bench/`` client scripts and the tests' generator references only.

The engine is deterministic: events scheduled for the same timestamp fire in
insertion order, and all randomness flows through explicitly-seeded
:class:`numpy.random.Generator` streams (see :mod:`repro.sim.rng`).
"""

from repro.sim.engine import (
    Event,
    PollTimer,
    Process,
    SimConfig,
    Simulator,
)
from repro.sim.rng import RngStreams

__all__ = [
    "Event",
    "PollTimer",
    "Process",
    "RngStreams",
    "SimConfig",
    "Simulator",
]
