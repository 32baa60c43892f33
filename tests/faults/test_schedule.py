"""FaultWindow / FaultSchedule validation, queries and constructors."""

import math

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.faults import (
    CHANNEL_KINDS,
    DPA_KINDS,
    NAMED_SCHEDULES,
    FaultSchedule,
    FaultWindow,
    named_schedule,
)

from tests.conftest import random_schedule

RTT = 10e-3


class TestFaultWindow:
    @pytest.mark.parametrize(
        "kw",
        [
            {"kind": "meteor-strike", "start": 0.0},
            {"kind": "blackout", "start": -1.0},
            {"kind": "blackout", "start": 2.0, "end": 1.0},
            {"kind": "blackout", "start": 1.0, "end": 1.0},
            {"kind": "blackout", "start": 0.0, "selector": "acks"},
            {"kind": "brownout", "start": 0.0, "drop_probability": 1.5},
            {"kind": "duplicate", "start": 0.0, "duplicate_probability": -0.1},
            {"kind": "corrupt", "start": 0.0, "corrupt_probability": 2.0},
            {"kind": "delay_spike", "start": 0.0, "delay_seconds": -1.0},
            {"kind": "reorder", "start": 0.0, "delay_jitter": -1e-3},
            {"kind": "dpa_crash", "start": 0.0, "worker": -1},
            {"kind": "dpa_stall", "start": 0.0},  # needs a finite end
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            FaultWindow(**kw)

    def test_active_is_half_open(self):
        w = FaultWindow(kind="blackout", start=1.0, end=2.0)
        assert not w.active(0.999)
        assert w.active(1.0)
        assert w.active(1.999)
        assert not w.active(2.0)
        assert (w.end - w.start) == pytest.approx(1.0)

    def test_unbounded_window(self):
        w = FaultWindow(kind="blackout", start=0.0)
        assert w.end == math.inf
        assert w.active(1e9)

    def test_selector_matching(self):
        allw = FaultWindow(kind="blackout", start=0.0)
        ctrl = FaultWindow(kind="blackout", start=0.0, selector="control")
        data = FaultWindow(kind="blackout", start=0.0, selector="data")
        assert allw.matches("control") and allw.matches("data")
        assert ctrl.matches("control") and not ctrl.matches("data")
        assert data.matches("data") and not data.matches("control")


class TestFaultSchedule:
    def test_partition_channel_vs_dpa(self):
        s = FaultSchedule(
            (
                FaultWindow(kind="blackout", start=0.0, end=1.0),
                FaultWindow(kind="dpa_stall", start=0.0, end=1.0),
                FaultWindow(kind="dpa_crash", start=0.5),
            )
        )
        assert len(s.windows) == 3
        assert {w.kind for w in s.channel_windows} == {"blackout"}
        assert {w.kind for w in s.dpa_windows} == {"dpa_stall", "dpa_crash"}

    def test_active_channel_respects_time_and_selector(self):
        s = FaultSchedule(
            (
                FaultWindow(kind="blackout", start=1.0, end=2.0, selector="data"),
                FaultWindow(kind="brownout", start=0.0, end=3.0, selector="control"),
                FaultWindow(kind="dpa_crash", start=0.0),
            )
        )
        assert [w.kind for w in s.active_channel(1.5, "data")] == ["blackout"]
        assert [w.kind for w in s.active_channel(1.5, "control")] == ["brownout"]
        assert s.active_channel(2.5, "data") == []

    def test_horizon(self):
        assert FaultSchedule().horizon == 0.0
        s = FaultSchedule(
            (
                FaultWindow(kind="blackout", start=1.0, end=2.0),
                FaultWindow(kind="blackout", start=5.0),  # unbounded
            )
        )
        # Unbounded windows contribute their start, not their (infinite) end.
        assert s.horizon == pytest.approx(5.0)

    def test_rejects_non_window_entries(self):
        with pytest.raises(ConfigError):
            FaultSchedule(("blackout",))

    def test_random_is_deterministic(self):
        a = random_schedule(np.random.default_rng(7), rtt=RTT)
        b = random_schedule(np.random.default_rng(7), rtt=RTT)
        assert a == b
        assert 1 <= len(a.windows) <= 3
        for w in a.windows:
            assert w.kind in ("blackout", "reorder")
            assert math.isfinite(w.end)
            assert RTT <= (w.end - w.start) <= 10 * RTT


class TestNamedSchedules:
    @pytest.mark.parametrize("name", sorted(NAMED_SCHEDULES))
    def test_instantiates_and_scales_with_rtt(self, name):
        s = named_schedule(name, rtt=RTT)
        assert s.name == name
        assert len(s.windows) >= 1
        assert s.horizon > 0.0
        for w in s.windows:
            assert w.kind in CHANNEL_KINDS | DPA_KINDS
        # Window positions are expressed in RTT multiples.
        double = named_schedule(name, rtt=2 * RTT)
        assert double.windows[0].start == pytest.approx(2 * s.windows[0].start)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            named_schedule("solar-flare", rtt=RTT)

    def test_invalid_rtt(self):
        with pytest.raises(ConfigError):
            named_schedule("blackout", rtt=0.0)

    def test_ack_blackout_is_control_only(self):
        s = named_schedule("ack-blackout", rtt=RTT)
        assert all(w.selector == "control" for w in s.windows)

    def test_chaos_mix_spans_both_planes(self):
        s = named_schedule("chaos-mix", rtt=RTT)
        assert s.channel_windows and s.dpa_windows
