"""Discrete-event engine semantics."""

import random

import pytest

from repro.sim.engine import SimulationError, Simulator

from tests.conftest import all_of, drains_within


class TestClockAndTimeouts:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulator()
        ev = sim.timeout(1.5)
        sim.run(ev)
        assert sim.now == pytest.approx(1.5)

    def test_run_until_time(self):
        sim = Simulator()
        fired = []
        sim.call_in(1.0, lambda: fired.append(1))
        sim.call_in(3.0, lambda: fired.append(3))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 3]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().timeout(-1.0)

    def test_call_at_past_rejected(self):
        sim = Simulator()
        sim.run(sim.timeout(5.0))
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_same_time_events_fire_in_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.call_at(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestEvents:
    def test_value_propagation(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("payload", delay=0.5)
        assert sim.run(ev) == "payload"

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_value_before_trigger_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_failure_raises_at_reader(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError):
            sim.run(ev)

    def test_run_until_event_deadlock_detected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.run(sim.event())  # never triggered, heap empty

    @pytest.mark.parametrize("trigger", ["succeed", "fail"])
    def test_negative_delay_cannot_turn_the_clock_back(self, trigger):
        # Unguarded, the entry dispatched at t = 0 after the clock reached 1.
        sim = Simulator()
        sim.run(until=1.0)
        ev = sim.event()
        arg = None if trigger == "succeed" else RuntimeError("boom")
        with pytest.raises(SimulationError, match="-1.0"):
            getattr(ev, trigger)(arg, delay=-1.0)
        assert not ev.triggered and not sim._heap
        ev.succeed("late", delay=0.5)
        assert sim.run(ev) == "late" and sim.now == 1.5


class TestCombinators:
    def test_all_of(self):
        sim = Simulator()
        evs = [sim.timeout(t, value=t) for t in (0.3, 0.1, 0.2)]
        gate = all_of(sim, evs)
        values = sim.run(gate)
        assert values == [0.3, 0.1, 0.2]
        assert sim.now == pytest.approx(0.3)

    def test_all_of_empty(self):
        sim = Simulator()
        assert sim.run(all_of(sim, [])) == []

    def test_any_of_fires_on_first(self):
        sim = Simulator()
        gate = sim.any_of([sim.timeout(0.5, "slow"), sim.timeout(0.1, "fast")])
        assert sim.run(gate) == "fast"
        assert sim.now == pytest.approx(0.1)

    def test_any_of_empty_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().any_of([])

    def test_any_of_with_already_processed_event(self):
        sim = Simulator()
        done = sim.timeout(0.1)
        sim.run(done)
        gate = sim.any_of([done, sim.timeout(5.0)])
        assert gate.triggered


class TestProcesses:
    def test_sequential_timeouts(self):
        sim = Simulator()
        trace = []

        def proc():
            yield sim.timeout(1.0)
            trace.append(sim.now)
            yield sim.timeout(2.0)
            trace.append(sim.now)
            return "done"

        p = sim.process(proc())
        assert sim.run(p) == "done"
        assert trace == [pytest.approx(1.0), pytest.approx(3.0)]

    def test_process_waits_on_event(self):
        sim = Simulator()
        gate = sim.event()
        got = []

        def waiter():
            value = yield gate
            got.append(value)

        sim.process(waiter())
        sim.call_in(2.0, lambda: gate.succeed("go"))
        sim.run()
        assert got == ["go"]

    def test_process_is_event(self):
        sim = Simulator()

        def inner():
            yield sim.timeout(1.0)
            return 42

        def outer():
            value = yield sim.process(inner())
            return value + 1

        assert sim.run(sim.process(outer())) == 43

    def test_yielding_non_event_rejected(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_exception_in_process_propagates_to_waiter(self):
        sim = Simulator()

        def failing():
            yield sim.timeout(0.1)
            raise ValueError("inner")

        p = sim.process(failing())
        with pytest.raises(ValueError):
            sim.run(p)

    def test_yield_already_processed_event(self):
        sim = Simulator()
        pre = sim.timeout(0.1, value="early")
        sim.run(pre)

        def proc():
            value = yield pre
            return value

        assert sim.run(sim.process(proc())) == "early"


class TestCallbackEntries:
    """``call_at``/``call_in`` push callback-only heap entries."""

    def test_arguments_are_passed_and_nothing_is_returned(self):
        sim = Simulator()
        got = []
        assert sim.call_at(1.0, got.append, "at") is None
        assert sim.call_in(2.0, lambda a, b: got.append((a, b)), 1, 2) is None
        sim.run()
        assert got == ["at", (1, 2)]
        assert sim.now == 2.0

    def test_past_rejected_for_both_forms(self):
        sim = Simulator()
        sim.run(sim.timeout(5.0))
        with pytest.raises(SimulationError):
            sim.call_at(4.999, lambda: None)
        with pytest.raises(SimulationError):
            sim.call_in(-0.001, lambda: None)
        sim.call_at(5.0, lambda: None)  # "now" is not the past

    def test_same_instant_kinds_fire_in_scheduling_order(self):
        # One _seq per scheduling, whatever the entry kind: callback
        # entries, event entries and a poll tick interleave exactly as
        # they were scheduled.
        sim = Simulator()
        order = []
        sim.call_at(1.0, order.append, "call_at-0")
        sim.timeout(1.0).callbacks.append(lambda ev: order.append("timeout-1"))
        sim.poll_until(lambda: sim.now >= 1.0, 1.0).callbacks.append(
            lambda ev: order.append("poll-2")
        )
        sim.call_in(1.0, order.append, "call_in-3")
        gate = sim.event()
        gate.callbacks.append(lambda ev: order.append("event-4"))
        gate.succeed(delay=1.0)
        sim.call_at(1.0, order.append, "call_at-5")
        sim.run()
        assert order == [
            "call_at-0", "timeout-1", "poll-2", "call_in-3", "event-4", "call_at-5",
        ]

    def test_entry_time_keeps_the_relative_delay_round_trip(self):
        # call_at has always scheduled at now + (time - now); the last bit
        # of that sum is part of every same-seed trace.
        sim = Simulator()
        sim.run(until=0.1)
        seen = []
        sim.call_at(0.3, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.1 + (0.3 - 0.1)]

    def test_call_in_pushes_the_entry_call_at_now_plus_delay_pushed(self):
        # call_in used to be call_at(now + delay); inlined, it keeps both
        # roundings, now + ((now + delay) - now), and takes one _seq.
        rng = random.Random(24)
        for _ in range(200):
            now = rng.random() * 10.0 ** rng.randint(-6, 1)
            delay = rng.choice([0.0, rng.random() * 10.0 ** rng.randint(-9, 1)])
            via_at, via_in = Simulator(), Simulator()
            via_at.run(until=now)
            via_in.run(until=now)
            via_at.call_at(now + delay, print)
            via_in.call_in(delay, print)
            assert via_in._heap == via_at._heap == [
                (now + ((now + delay) - now), 0, print, ())
            ]
            assert via_in._seq == via_at._seq == 1


class TestNanIsRejected:
    """A NaN time compares False both ways; pushed, it breaks the heap."""

    def test_nan_delay_cannot_strand_entries_or_turn_the_clock_back(self):
        # Before the guards were negated this dispatched a then c (the
        # clock ran 1.0 -> 0.5), never ran b and returned with 2 entries.
        sim = Simulator()
        ran = []
        sim.call_in(1.0, lambda: ran.append(("a", sim.now)))
        with pytest.raises(SimulationError, match="nan"):
            sim.call_in(float("nan"), ran.append, "x")
        sim.call_in(2.0, lambda: ran.append(("b", sim.now)))
        sim.call_in(0.5, lambda: ran.append(("c", sim.now)))
        sim.run()
        assert ran == [("c", 0.5), ("a", 1.0), ("b", 2.0)]
        assert not sim._heap

    @pytest.mark.parametrize(
        "schedule",
        [
            lambda sim, t: sim.call_at(t, lambda: None),
            lambda sim, t: sim.call_in(t, lambda: None),
            lambda sim, t: sim.timeout(t),
            lambda sim, t: sim.timer(lambda: None).arm(t),
            lambda sim, t: sim.poll_until(lambda: False, t),
            lambda sim, t: sim.event().succeed(None, delay=t),
            lambda sim, t: sim.event().fail(RuntimeError("boom"), delay=t),
        ],
        ids=[
            "call_at", "call_in", "timeout", "Timer.arm", "poll_until",
            "Event.succeed", "Event.fail",
        ],
    )
    def test_every_entry_point_names_the_value_and_pushes_nothing(self, schedule):
        sim = Simulator()
        sim.run(until=1.0)
        with pytest.raises(SimulationError, match="nan"):
            schedule(sim, float("nan"))
        assert not sim._heap

    def test_nan_deadline_is_rejected_and_leaves_the_clock(self):
        # Unguarded, run(until=nan) returned at once with sim.now == nan.
        sim = Simulator()
        sim.call_in(1.0, lambda: None)
        with pytest.raises(SimulationError, match="nan"):
            sim.run(until=float("nan"))
        assert sim.now == 0.0
        sim.run()
        assert sim.now == 1.0

    def test_infinity_is_still_a_time(self):
        sim = Simulator()
        sim.call_at(float("inf"), lambda: None)
        sim.call_in(float("inf"), lambda: None)
        sim.timeout(float("inf"))
        sim.timer(lambda: None).arm(float("inf"))
        assert [entry[0] for entry in sim._heap] == [float("inf")] * 4


def _contended(sim, log, wait):
    """A waiter polling a counter that a ticker bumps on the same grid.

    Poll instants and tick instants tie on every quantum, and further
    same-instant callbacks are scheduled around them, so the dispatch
    order depends on every ``_seq`` the waiter's polling consumes.
    """
    state = {"n": 0}
    q = 0.25

    def ticker():
        for _ in range(6):
            yield sim.timeout(q)
            state["n"] += 1
            log.append(("tick", sim.now, state["n"]))
            sim.call_in(q, log.append, ("echo", state["n"]))

    def waiter():
        log.append(("wait", sim.now))
        yield from wait(lambda: state["n"] >= 4, q)
        log.append(("woke", sim.now, state["n"]))
        sim.call_in(0.0, log.append, ("after", sim.now))
        yield sim.timeout(q)
        log.append(("done", sim.now))

    sim.process(waiter())
    sim.process(ticker())
    for i in range(1, 8):
        sim.call_at(i * q, log.append, ("rival", i))


class TestPollTimer:
    def test_matches_the_timeout_loop_dispatch_for_dispatch(self):
        def run(wait):
            sim = Simulator()
            log = []
            _contended(sim, log, lambda pred, q: wait(sim, pred, q))
            steps = 0
            while sim._heap:
                sim.step()
                steps += 1
            return log, sim.now, sim._seq, steps

        def old_loop(sim, pred, q):
            while not pred():
                yield sim.timeout(q)

        def poll_timer(sim, pred, q):
            poll = sim.poll_until(pred, q)
            if not poll.processed:
                yield poll

        old = run(old_loop)
        new = run(poll_timer)
        assert new == old
        log = old[0]
        # The tie is real: the counter reached 4 at t=1.0, but the waiter's
        # poll for that instant was scheduled before the ticker's entry, so
        # it saw 3 there and woke a whole quantum later -- ahead of the
        # ticker again.  Any change in _seq allocation moves this.
        assert ("tick", 1.0, 4) in log
        assert ("woke", 1.25, 4) in log
        assert log.index(("woke", 1.25, 4)) < log.index(("tick", 1.25, 5))

    def test_predicate_true_at_arm_time_schedules_nothing(self):
        sim = Simulator()
        poll = sim.poll_until(lambda: True, 1.0)
        assert poll.processed and poll.triggered
        assert not sim._heap and sim._seq == 0

        def proc():
            if not poll.processed:
                yield poll
            return sim.now

        assert sim.run(sim.process(proc())) == 0.0

    def test_yielding_an_already_fired_poll_still_resumes(self):
        sim = Simulator()

        def proc():
            yield sim.poll_until(lambda: True, 1.0)
            return "resumed"

        assert sim.run(sim.process(proc())) == "resumed"
        assert sim.now == 0.0

    def test_fires_on_the_first_grid_point_where_the_predicate_holds(self):
        sim = Simulator()
        flag = []
        sim.call_at(2.5, flag.append, True)
        fired = []
        sim.poll_until(lambda: bool(flag), 1.0).callbacks.append(
            lambda ev: fired.append(sim.now)
        )
        sim.run()
        assert fired == [3.0]
        assert sim._seq == 4  # call_at + arm + two re-arms: one entry at a time

    def test_bad_quantum_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().poll_until(lambda: False, 0.0)


class TestTimer:
    """``Simulator.timer``: the ``any_of([timeout, wake])`` a waiter raced."""

    def test_fires_once_with_its_arguments_at_now_plus_delay(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(lambda *a: fired.append((sim.now, a)), "x", 2)
        assert not timer.armed and not sim._heap
        sim.call_at(0.1, timer.arm, 0.3)
        sim.run()
        # now + delay, what timeout(delay) lands on -- not call_in's
        # now + ((now + delay) - now).
        assert fired == [(0.1 + 0.3, ("x", 2))]
        assert not timer.armed

    def test_rearming_supersedes_the_pending_expiry(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        timer.arm(1.0)
        sim.call_at(0.5, timer.arm, 2.0)
        sim.run()
        assert fired == [2.5]
        assert sim.now == 2.5

    def test_cancelled_entry_still_advances_the_drained_clock(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(fired.append, "late")
        timer.arm(3.0)
        sim.call_at(1.0, timer.cancel)
        sim.run()
        # Lazy cancellation: the entry pops at its instant as a no-op, as
        # the timeout that lost its any_of did.  The clock a drained run
        # ends on is in every same-seed digest.
        assert fired == [] and not timer.armed
        assert sim.now == 3.0 and not sim._heap

    def test_cancelled_entry_still_crosses_the_sampler_boundary(self):
        from repro.telemetry import Telemetry, TimeseriesSampler

        def sampled(timer_kind):
            sampler = TimeseriesSampler(window=1.0, capacity=16)
            sim = Simulator(telemetry=Telemetry(timeseries=sampler))
            counter = sim.telemetry.metrics.scope("app").counter("ticks")
            sim.call_at(0.5, counter.inc)
            if timer_kind != "absent":
                timer = sim.timer(lambda: None)
                timer.arm(2.5)
                if timer_kind == "dead":
                    sim.call_at(0.6, timer.cancel)
            sim.run()
            series = sampler.series("app.ticks")
            return sampler.windows_closed, series and series.points()

        # A dead entry closes the windows a live one at its instant would.
        assert sampled("dead") == sampled("live")
        assert sampled("dead")[0] > sampled("absent")[0]

    def test_every_arm_takes_one_seq_where_the_timeout_took_one(self):
        def run(wait):
            sim = Simulator()
            log = []
            sim.call_at(1.0, log.append, "rival-before")
            wait(sim, log)
            sim.call_at(1.0, log.append, "rival-after")
            steps = []
            while sim._heap:
                steps.append(sim._heap[0][:2])
                sim.step()
            return log, steps, sim._seq

        def with_timeout(sim, log):
            sim.timeout(1.0).callbacks.append(lambda ev: log.append("expired"))

        def with_timer(sim, log):
            sim.timer(log.append, "expired").arm(1.0)

        assert run(with_timer) == run(with_timeout)
        assert run(with_timer)[0] == ["rival-before", "expired", "rival-after"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().timer(lambda: None).arm(-1.0)


class TestRunVersusStep:
    """``run()`` inlines the dispatch; ``step()`` is the same loop unrolled."""

    @staticmethod
    def _scenario(drive, *, attach_at=None):
        from repro.sim.profile import SimProfiler
        from repro.telemetry import Telemetry, TimeseriesSampler

        ticks = iter(range(1, 1_000_000))
        profiler = SimProfiler(clock=lambda: next(ticks) * 1e-3)
        sampler = TimeseriesSampler(window=0.2, capacity=64)
        early = attach_at is None
        sim = Simulator(telemetry=Telemetry(
            profiler=profiler if early else None,
            timeseries=sampler if early else None,
        ))
        counter = sim.telemetry.metrics.counter("app.log_lines")

        class Log(list):
            def append(self, item):
                counter.inc()
                super().append(item)

        log = Log()
        _contended(sim, log, lambda pred, q: _poll(sim, pred, q))
        if not early:
            def attach():
                sim.attach_sampler(sampler)
                sim.attach_profiler(profiler)
                log.append(("attached", sim.now))

            sim.call_at(attach_at, attach)
        drive(sim)
        series = {
            name: sampler.series(name).points() for name in sampler.names()
        }
        categories = sorted(
            (c["category"], c["events"]) for c in profiler.report()["categories"]
        )
        return list(log), sim.now, profiler.events, categories, (
            sampler.windows_closed, series
        )

    @staticmethod
    def _by_run(sim):
        sim.run()

    @staticmethod
    def _by_step(sim):
        while sim._heap:
            sim.step()
        sim.run()  # nothing left to dispatch: only the final boundary poll

    @pytest.mark.parametrize("attach_at", [None, 0.6])
    def test_same_trace_with_sampler_and_profiler(self, attach_at):
        ran = self._scenario(self._by_run, attach_at=attach_at)
        stepped = self._scenario(self._by_step, attach_at=attach_at)
        assert ran == stepped
        log, _now, events, categories, (windows, _series) = ran
        assert events > 0 and windows > 0
        if attach_at is None:
            # Every dispatch was profiled, poll ticks under the predicate's
            # owner (this module), not under an engine trampoline.
            assert not any(name.startswith("repro.sim.engine") for name, _n in categories)
        else:
            assert ("attached", attach_at) in log

    def test_hooks_attached_mid_run_see_the_very_next_dispatch(self):
        from repro.sim.profile import SimProfiler

        sim = Simulator()
        profiler = SimProfiler()
        seen = []
        sim.call_at(1.0, sim.attach_profiler, profiler)
        sim.call_at(1.0, seen.append, "next")
        sim.call_at(2.0, seen.append, "later")
        sim.run()
        assert seen == ["next", "later"]
        assert profiler.events == 2

    def test_run_until_event_and_deadline_match_stepping(self):
        def build():
            sim = Simulator()
            log = []
            _contended(sim, log, lambda pred, q: _poll(sim, pred, q))
            return sim, log

        sim_a, log_a = build()
        done = sim_a.timeout(1.0, value="v")
        assert sim_a.run(done) == "v"
        sim_b, log_b = build()
        done_b = sim_b.timeout(1.0)
        while not done_b.processed:
            sim_b.step()
        assert log_a == log_b and sim_a.now == sim_b.now == 1.0

        sim_a.run(until=1.6)
        while sim_b._heap and sim_b._heap[0][0] <= 1.6:
            sim_b.step()
        assert log_a == log_b
        assert sim_a.now == 1.6  # the deadline, not the last entry's time


def _poll(sim, pred, q):
    poll = sim.poll_until(pred, q)
    if not poll.processed:
        yield poll


def _tick(sim):
    sim.call_in(1e-6, _tick, sim)


class TestDrainsWithin:
    """The tests' liveness budget: drain, or fail naming what kept running."""

    def test_a_drained_run_returns_its_dispatches(self):
        sim = Simulator()
        for delay in (1.0, 2.0, 3.0):
            sim.call_in(delay, lambda: None)
        sim.timeout(0.5)  # an event nothing waits on still counts
        assert drains_within(sim, dispatches=4, sim_seconds=3.0) == 4
        assert sim.now == 3.0

    @pytest.mark.parametrize(
        "budget, spent",
        [(dict(dispatches=50, sim_seconds=1.0), "50 dispatches"),
         (dict(dispatches=10**6, sim_seconds=1e-4), "0.0001 s")],
    )
    def test_a_run_past_either_budget_fails_naming_its_callback(self, budget, spent):
        sim = Simulator()
        sim.call_in(0.0, _tick, sim)
        with pytest.raises(pytest.fail.Exception) as failure:
            drains_within(sim, **budget)
        assert spent in str(failure.value)
        assert "test_engine:_tick" in str(failure.value)
