"""A second deterministic floor under host time: calls per offered packet.

``test_dispatch_budget.py`` counts heap dispatches; this counts what the
dispatches *do*: every Python-level ``call`` and C-level ``c_call`` event
``sys.setprofile`` reports, per packet offered to the wire, on the same
three miniatures.  With the collector held off the count repeats exactly
for a seed once imports and memoised tables are warm, so each workload is
held to a ceiling 10 % above the measured floor (CPython 3.11, NumPy
2.4): 105.58 / 103.26 / 123.95 calls per packet since ``call_in`` pushes
its own heap entry, 106.99 / 104.36 / 126.24 while it called ``call_at``.

What moves it: a generated dataclass ``__init__`` + ``__post_init__`` +
``default_factory`` per record where a hand-written constructor is one
call; a masked NumPy reduction per state per timer wake; an ``Event``, a
closure and a generator resume per timer wait.  (``object.__setattr__``,
the other cost of a frozen dataclass, is a slot wrapper and raises no
``c_call`` event, so this floor under-counts that saving.)
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.telemetry import Telemetry

from tests.sim.test_dispatch_budget import _incast, _packets_offered, _wan


def _calls_per_packet(run) -> tuple[int, int]:
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    # A collection inside the counted region would finalise the previous
    # run's suspended generators (one ``call`` event each) whenever the
    # allocator happened to trigger it.
    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        sim = run(Telemetry())
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls, _packets_offered(sim)


@pytest.mark.parametrize(
    "run, ceiling",
    [(_wan("sr"), 116.1), (_wan("ec"), 113.5), (_incast, 136.3)],
    ids=["wan_sr", "wan_ec", "incast_swift"],
)
def test_calls_per_offered_packet(run, ceiling):
    run(Telemetry())  # warm-up: lazy imports and memoised tables
    calls, packets = _calls_per_packet(run)
    assert (calls, packets) == _calls_per_packet(run)
    assert packets > 1000
    assert calls / packets <= ceiling, (calls, packets)
