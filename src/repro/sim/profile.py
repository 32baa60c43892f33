"""Wall-clock self-profiler for the DES engine: where does real time go?

ROADMAP item 1 (the 10-100x flow-level fast path) needs a measured
hotspot ranking, not guesswork: this module attributes the engine's
*wall-clock* time to event-handler categories while the simulation runs.
Attach a :class:`SimProfiler` to a :class:`~repro.sim.engine.Simulator`
(``sim.attach_profiler(profiler)`` or via ``Telemetry(profiler=...)``)
and every dispatched callback is timed with ``time.perf_counter`` and
charged to a category derived from the code that actually ran:

* a :class:`~repro.sim.engine.Process` resumption (a ``bench/`` client
  script's) is charged to the *generator* being resumed, not to the
  engine's ``Process._resume`` trampoline;
* a plain function/lambda callback -- an event's callback or the target
  of a ``call_at``/``call_in`` callback entry, a ``functools.partial``
  unwrapped -- is charged to its defining module and qualname
  (``repro.fabric.service:FabricService._on_ack.<locals>.<lambda>``
  collapses to ``repro.fabric.service:FabricService._on_ack``);
* a :class:`~repro.sim.engine.PollTimer` tick is charged to the
  *predicate* it evaluates, i.e. to the component that armed the poll
  (waiters resumed by the final tick run inside it).

The profiler perturbs nothing observable: it draws no RNG, schedules no
events, and touches only wall-clock state — simulated timestamps, metric
values and traces stay byte-identical to an unprofiled run.  (It does
cost real time per event, so leave it detached on hot benchmarks you are
not actively profiling.)

:meth:`SimProfiler.report` returns a JSON-ready dict (see
``docs/observability.md``): total events, sim/wall seconds,
events/sec, wall-seconds-per-sim-second, engine overhead, and one entry
per category with call count, wall seconds and share.
"""

from __future__ import annotations

import time

from repro.common.errors import ConfigError


def _category_of_code(code) -> str:
    """``module:qualname`` for a code object (generator or function)."""
    qualname = getattr(code, "co_qualname", code.co_name)  # 3.11+
    # Collapse closure noise: Outer.<locals>.<lambda> -> Outer.
    qualname = qualname.split(".<locals>.", 1)[0]
    filename = code.co_filename.replace("\\", "/")
    module = filename.rsplit("/", 1)[-1].removesuffix(".py")
    if "/repro/" in filename:
        tail = filename.rsplit("/repro/", 1)[1].removesuffix(".py")
        module = "repro." + tail.replace("/", ".")
    return f"{module}:{qualname}"


class SimProfiler:
    """Per-category wall-clock attribution of engine callback dispatch."""

    def __init__(self, *, clock=time.perf_counter):
        self._clock = clock
        #: category -> [calls, wall_seconds]
        self._categories: dict[str, list] = {}
        #: code object (or type) -> category string, to amortize naming.
        self._keys: dict = {}
        self.events = 0
        self._first_call: float | None = None
        self._last_call = 0.0
        self.sim = None

    def bind(self, sim) -> None:
        """Attach to a simulator; resets all attribution state."""
        self.sim = sim
        self._categories.clear()
        self._keys.clear()
        self.events = 0
        self._first_call = None
        self._last_call = 0.0

    # -- dispatch (called from Simulator._dispatch) ----------------------------

    def _key(self, cb) -> str:
        # Charge the scheduling component, never an engine trampoline: a
        # decorated callback names its target via __wrapped__, a Process
        # resumption its coroutine, a PollTimer tick its predicate.
        cb = getattr(cb, "__wrapped__", cb)
        cb = getattr(cb, "func", cb)  # functools.partial
        owner = getattr(cb, "__self__", None)
        func = getattr(owner, "_predicate", None) or getattr(cb, "__func__", cb)
        gen = getattr(owner, "_gen", None)
        if gen is not None and hasattr(gen, "gi_code"):
            code = gen.gi_code  # Process._resume
        else:
            code = getattr(func, "__code__", None)
        if code is None:
            code = type(cb)  # callable object without __code__
            category = self._keys.get(code)
            if category is None:
                category = f"{code.__module__}:{code.__qualname__}"
                self._keys[code] = category
            return category
        category = self._keys.get(code)
        if category is None:
            category = _category_of_code(code)
            self._keys[code] = category
        return category

    def call(self, cb, *args) -> None:
        """Run one callback under the clock (the engine's profiled path).

        ``args`` is the event for an event's callback and the scheduled
        arguments for a callback-only entry (none for a poll tick).
        """
        start = self._clock()
        if self._first_call is None:
            self._first_call = start
        try:
            cb(*args)
        finally:
            end = self._clock()
            self._last_call = end
            category = self._key(cb)
            bucket = self._categories.get(category)
            if bucket is None:
                self._categories[category] = bucket = [0, 0.0]
            bucket[0] += 1
            bucket[1] += end - start
            self.events += 1

    # -- reporting -------------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        """Wall span from the first to the last dispatched callback."""
        if self._first_call is None:
            return 0.0
        return self._last_call - self._first_call

    @property
    def handler_seconds(self) -> float:
        return sum(b[1] for b in self._categories.values())

    def report(self, *, wall_seconds: float | None = None) -> dict:
        """The JSON-ready attribution report (see module docstring).

        Pass the benchmark harness's measured ``wall_seconds`` when
        available; it includes heap pops and loop overhead that the
        per-callback clock cannot see.  Defaults to the first-to-last
        callback span.
        """
        if wall_seconds is None:
            wall_seconds = self.wall_seconds
        if wall_seconds < 0:
            raise ConfigError(f"wall_seconds must be >= 0, got {wall_seconds}")
        handler = self.handler_seconds
        sim_seconds = self.sim.now if self.sim is not None else 0.0
        categories = [
            {
                "category": name,
                "events": calls,
                "wall_seconds": seconds,
                "share": seconds / handler if handler > 0 else 0.0,
            }
            for name, (calls, seconds) in self._categories.items()
        ]
        categories.sort(key=lambda c: (-c["wall_seconds"], c["category"]))
        return {
            "events": self.events,
            "sim_seconds": sim_seconds,
            "wall_seconds": wall_seconds,
            "handler_seconds": handler,
            "engine_overhead_seconds": max(0.0, wall_seconds - handler),
            "events_per_second": (
                self.events / wall_seconds if wall_seconds > 0 else 0.0
            ),
            "wall_per_sim_second": (
                wall_seconds / sim_seconds if sim_seconds > 0 else 0.0
            ),
            "categories": categories,
        }
