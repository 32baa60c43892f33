"""The gated ``PollTimer``: same tick instants, nothing on the heap while gated.

``poll_until(pred, q, after=event)`` is for a predicate that cannot hold
before ``event`` (the SDR injection poll and the handle's clear-to-send).
The reference is the ungated poll, which ticks through the whole wait.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


def _run(start, quantum, gate_at, ready_at, *, gated):
    """Arm a poll at ``start``; returns (fire instant, tick instants it evaluated)."""
    sim = Simulator()
    gate = sim.event()
    ready = []
    evaluated = []
    fired = []

    def pred():
        evaluated.append(sim.now)
        return bool(ready)

    def arm():
        poll = sim.poll_until(pred, quantum, after=gate if gated else None)
        poll.callbacks.append(lambda _e: fired.append(sim.now))

    sim.call_at(start, arm)
    sim.call_at(gate_at, gate.succeed)
    sim.call_at(ready_at, ready.append, True)
    sim.run()
    return fired, evaluated, sim.now


@settings(max_examples=500, deadline=None)
@given(
    start=st.floats(0.0, 10.0),
    quantum=st.floats(1e-7, 1.0),
    # In quanta, so the reference's tick count stays sane; whole numbers put
    # the gate exactly on a tick instant.
    flight=st.floats(0.0, 3000.0) | st.integers(0, 3000),
    lag=st.floats(0.0, 30.0) | st.integers(1, 30),
)
def test_gated_poll_fires_at_the_bit_identical_instant(start, quantum, flight, lag):
    gate_at = start + flight * quantum
    ready_at = gate_at + lag * quantum
    # The contract: the predicate does not hold by the gate's own instant.
    assume(ready_at > gate_at)
    fired, evaluated, clock = _run(start, quantum, gate_at, ready_at, gated=True)
    ref_fired, ref_evaluated, ref_clock = _run(
        start, quantum, gate_at, ready_at, gated=False
    )
    assert fired == ref_fired and len(fired) == 1
    assert clock == ref_clock
    # It evaluated a suffix of the reference's ticks: the arm-time check,
    # then nothing until the gate opened, then the same grid.
    skipped = len(ref_evaluated) - len(evaluated)
    assert evaluated == ref_evaluated[:1] + ref_evaluated[1 + skipped:]
    assert all(t <= gate_at for t in ref_evaluated[1 : 1 + skipped])
    assert all(t > gate_at for t in evaluated[1:])


def test_gated_poll_pushes_nothing_until_the_gate_opens():
    sim = Simulator()
    gate = sim.event()
    poll = sim.poll_until(lambda: False, 0.5, after=gate)
    poll.callbacks.append(lambda _e: None)
    assert not sim._heap and sim._seq == 0
    sim.run(until=100.0)
    assert not sim._heap and sim._seq == 0
    gate.succeed()
    sim.step()  # the gate's own dispatch re-arms the poll on its grid
    assert [entry[0] for entry in sim._heap] == [100.5]


def test_triggered_gate_is_no_gate():
    sim = Simulator()
    gate = sim.event()
    gate.succeed()  # triggered, not yet dispatched: the predicate may hold now
    sim.poll_until(lambda: False, 0.5, after=gate).callbacks.append(lambda _e: None)
    assert sorted(entry[0] for entry in sim._heap) == [0.0, 0.5]
