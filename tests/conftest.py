"""Shared fixtures: wired SDR pairs and protocol endpoints."""

from __future__ import annotations

import contextlib
from collections import Counter, deque
from unittest import mock

import pytest

from repro import stack
from repro.common.config import ChannelConfig, DpaConfig, SdrConfig
from repro.common.units import KiB, MiB
from repro.faults import FaultSchedule, FaultWindow
from repro.sim.engine import Event, SimulationError, Simulator, Timer
from repro.sim.profile import SimProfiler
from repro.stack import Stack, build_pair
from repro.telemetry import Telemetry

# The claims table's predicates assert outside a test module.
pytest.register_assert_rewrite("tests.claims")


#: The fixtures hand out the public record under their older name.
SdrPair = Stack


def random_schedule(rng, *, rtt: float) -> FaultSchedule:
    """Seeded random blackout / reorder windows (the chaos-fuzz axis):
    one to three, each starting within the first 60 RTTs.

    Windows are short relative to the horizon so that a retry budget of
    default size always outlives them -- the fuzz invariant stays
    "eventual delivery", never "clean failure".
    """
    windows = []
    for _ in range(int(rng.integers(1, 4))):
        kind = ["blackout", "reorder"][int(rng.integers(0, 2))]
        start = float(rng.uniform(0.0, 60.0 * rtt))
        end = start + float(rng.uniform(1.0, 10.0)) * rtt
        if kind == "blackout":
            windows.append(FaultWindow(kind="blackout", start=start, end=end))
        else:
            windows.append(FaultWindow(
                kind="reorder", start=start, end=end,
                delay_jitter=float(rng.uniform(0.1, 2.0)) * rtt,
            ))
    return FaultSchedule(windows=tuple(windows), name="random")


def all_of(sim, events):
    """An event that fires, with every value, once all ``events`` have fired.

    The first failure fails it instead.  Nothing under ``repro`` joins
    events this way any more; tests that wait on several tickets and the
    generator references (the gate they yielded) use this one.
    """
    gate = sim.event()
    if not events:
        return gate.succeed([])
    remaining = [len(events)]

    def done(ev):
        if gate.triggered:
            return
        if ev._error is not None:
            gate.fail(ev._error)
            return
        remaining[0] -= 1
        if not remaining[0]:
            gate.succeed([e._value for e in events])

    for ev in events:
        if ev.processed:
            done(ev)
        else:
            ev.callbacks.append(done)
    return gate


class RecordingSimulator(Simulator):
    """A :class:`Simulator` whose :meth:`run` steps and logs every entry.

    ``dispatched`` holds ``(time, seq, dead)`` per dispatched heap entry,
    ``dead`` marking an event entry with no callbacks -- what ends a
    generator nothing waits on.  Patched in for ``repro.stack``'s
    ``Simulator``, where every runner builds its own, it gives a callback
    chain's whole-run dispatch sequence to compare against its generator
    reference.
    """

    def __init__(self, **kw):
        super().__init__(**kw)
        self.dispatched: list[tuple[float, int, bool]] = []

    def run(self, until=None):
        waiting = isinstance(until, Event)
        deadline = float("inf") if waiting or until is None else float(until)
        heap = self._heap
        while not (waiting and until.processed) and heap and heap[0][0] <= deadline:
            time, seq, fn, arg = heap[0]
            self.dispatched.append((time, seq, fn is None and not arg.callbacks))
            self.step()
        if waiting:
            if not until.processed:
                raise SimulationError("deadlock: heap drained before the target")
            return until.value
        if until is not None:
            self.now = deadline
        if self._sampler is not None:
            self._sampler.poll(self.now)
        return None


class NamingSimulator(RecordingSimulator):
    """A :class:`RecordingSimulator` that also names each entry it runs.

    ``ran`` holds ``(time, callback, owner, live)`` per dispatched entry:
    the callback's ``__qualname__`` (``"event"`` for an event entry), the
    object it is bound to, and whether it does anything.  A
    :class:`~repro.sim.engine.Timer` entry is named for the timer's
    function, and is dead once the timer was re-armed or cancelled.
    :func:`numbered` turns the owners into comparable ordinals.
    """

    def __init__(self, **kw):
        super().__init__(**kw)
        self.ran: list[tuple[float, str, object, bool]] = []

    def step(self):
        time, _seq, fn, arg = self._heap[0]
        live = True
        if fn is None:
            self.ran.append((time, "event", None, bool(arg.callbacks)))
        else:
            fn = getattr(fn, "func", fn)  # functools.partial
            owner = getattr(fn, "__self__", None)
            if isinstance(owner, Timer):
                live = arg[0] == owner._live
                fn = owner._fn
                owner = getattr(fn, "__self__", None)
            self.ran.append((time, fn.__qualname__, owner, live))
        super().step()


def numbered(ran):
    """``NamingSimulator.ran`` with each owner replaced by the order of its
    first appearance, the form two runs' sequences are compared in."""
    ordinals: dict[int, int] = {}
    return [
        (time, name, ordinals.setdefault(id(owner), len(ordinals)), live)
        for time, name, owner, live in ran
    ]


@contextlib.contextmanager
def recording_sims(cls=RecordingSimulator):
    """Have ``repro.stack``, where every runner builds its ``Simulator``,
    build a ``cls`` (a :class:`RecordingSimulator`) instead.

    Yields the list the simulators land in, in build order.
    """
    sims = []

    def build(**kw):
        sims.append(cls(**kw))
        return sims[-1]

    with mock.patch.object(stack, "Simulator", build):
        yield sims


def live_dispatches(dispatched):
    """``dispatched`` without its dead entries, each seq replaced by its rank.

    The form two runs are compared in when one of them drops the dead
    entry that ended a generator: every other entry keeps its instant and
    its order, and only the numbering of the ``_seq`` counter shifts.
    """
    live = [(time, seq) for time, seq, dead in dispatched if not dead]
    rank = {seq: i for i, seq in enumerate(sorted(seq for _, seq in live))}
    return [(time, rank[seq]) for time, seq in live]


def drains_within(sim: Simulator, *, dispatches: int, sim_seconds: float) -> int:
    """Run ``sim``'s heap dry; fail if either budget runs out first.

    ``dispatches`` bounds the heap entries run and ``sim_seconds`` the
    simulated time from now.  A run that outlives either fails naming the
    profiler categories (``module:qualname``) of the last 4,096 callbacks
    it ran, so a run that never ends points at the layer keeping it
    alive.  Returns the dispatches a drained run took.
    """
    name = SimProfiler()._key
    recent: deque[str] = deque(maxlen=4096)
    heap, deadline = sim._heap, sim.now + sim_seconds
    for n in range(dispatches):
        if not heap:
            return n
        time, _seq, fn, arg = heap[0]
        if time > deadline:
            break
        if fn is not None:
            recent.append(name(fn))
        elif arg.callbacks:
            recent.extend(map(name, arg.callbacks))
        else:
            recent.append("an event nothing waits on")
        sim.step()
    else:
        if not heap:
            return dispatches
    top = ", ".join(f"{cat} x{k}" for cat, k in Counter(recent).most_common(5))
    pytest.fail(
        f"no drain within {dispatches:,} dispatches / {sim_seconds:g} s "
        f"simulated (now {sim.now:.6g} s, {len(heap):,} entries pending); "
        f"its last {len(recent):,} callbacks ran {top}"
    )


def make_sdr_pair(
    *,
    drop: float = 0.0,
    bandwidth_bps: float = 100e9,
    distance_km: float = 100.0,
    mtu: int = 4 * KiB,
    chunk: int = 8 * KiB,
    max_message: int = 4 * MiB,
    channels: int = 4,
    generations: int = 4,
    inflight: int = 16,
    jitter: float = 0.0,
    seed: int = 0,
    dpa: DpaConfig | None = None,
    faults: FaultSchedule | None = None,
    planes: int | None = None,
    spread: str = "flow",
    buffer_bytes: int = 0,
    ecn_threshold_bytes: int = 0,
    telemetry: Telemetry | None = None,
) -> SdrPair:
    """The fixture's flattened kwargs over :func:`repro.stack.build_pair`."""
    channel = ChannelConfig(
        bandwidth_bps=bandwidth_bps,
        distance_km=distance_km,
        mtu_bytes=mtu,
        drop_probability=drop,
        jitter_fraction=jitter,
        buffer_bytes=buffer_bytes,
        ecn_threshold_bytes=ecn_threshold_bytes,
    )
    sdr_cfg = SdrConfig(
        chunk_bytes=chunk,
        max_message_bytes=max_message,
        mtu_bytes=mtu,
        channels=channels,
        generations=generations,
        inflight_messages=inflight,
    )
    return build_pair(
        channel, sdr_cfg, dpa=dpa, planes=planes, spread=spread, faults=faults,
        seed=seed, telemetry=telemetry,
    )


@pytest.fixture
def sdr_pair() -> SdrPair:
    """Lossless default pair."""
    return make_sdr_pair()


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--chaos-seed",
        type=int,
        default=0,
        help="base RNG seed for the fault-injection chaos suite (-m chaos)",
    )


@pytest.fixture
def chaos_seed(request: pytest.FixtureRequest) -> int:
    """Seed for chaos tests; CI sweeps it via ``--chaos-seed``."""
    return request.config.getoption("--chaos-seed")
