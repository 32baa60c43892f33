"""Sparkline rendering of trace series (``repro top``)."""

import pytest

from repro.common.errors import ConfigError
from repro.telemetry.top import (
    BLOCKS,
    SeriesRow,
    bin_counters,
    bin_instants,
    sparkline,
    top_table,
)
from repro.telemetry.trace import TraceEvent


def _counter(ts, track, **args):
    return TraceEvent(name="series", cat="x", ph="C", ts=ts, track=track, args=args)


def _instant(ts, name):
    return TraceEvent(name=name, cat="x", ph="i", ts=ts, track="t", args={})


class TestSparkline:
    def test_scales_to_block_ramp(self):
        line = sparkline([0.0, 0.5, 1.0], lo=0.0, hi=1.0)
        assert line[0] == BLOCKS[0]
        assert line[-1] == BLOCKS[-1]
        assert len(line) == 3

    def test_flat_series_renders_low_blocks(self):
        assert sparkline([5.0, 5.0], lo=5.0, hi=5.0) == BLOCKS[0] * 2

    def test_none_renders_as_gap(self):
        assert sparkline([None, 1.0], lo=0.0, hi=1.0) == " " + BLOCKS[-1]


class TestBinning:
    def test_counter_last_sample_per_bin_wins(self):
        events = [
            _counter(0.0, "cc", rate=1.0),
            _counter(0.04, "cc", rate=2.0),  # same bin as 0.0 at width 8
            _counter(0.9, "cc", rate=9.0),
        ]
        [row] = bin_counters(events, width=8, t0=0.0, t1=1.0)
        assert row.name == "cc.rate"
        assert row.bins[0] == 2.0

    def test_counter_holds_value_through_empty_bins(self):
        events = [_counter(0.0, "cc", rate=4.0), _counter(0.99, "cc", rate=8.0)]
        [row] = bin_counters(events, width=4, t0=0.0, t1=1.0)
        assert row.bins == [4.0, 4.0, 4.0, 8.0]

    def test_value_key_uses_bare_track_name(self):
        [row] = bin_counters(
            [_counter(0.0, "backlog", value=3.0)], width=8, t0=0.0, t1=1.0
        )
        assert row.name == "backlog"

    def test_non_numeric_args_skipped(self):
        events = [
            TraceEvent(name="s", cat="x", ph="C", ts=0.0, track="t",
                       args={"label": "hot", "v": 1.0}),
        ]
        [row] = bin_counters(events, width=8, t0=0.0, t1=1.0)
        assert row.name == "t.v"

    def test_instants_count_per_bin(self):
        events = [_instant(0.1, "burn")] * 3 + [_instant(0.9, "burn")]
        [row] = bin_instants(events, width=10, t0=0.0, t1=1.0)
        assert row.bins[1] == 3.0
        assert row.bins[9] == 1.0
        assert sum(row.bins) == 4.0


class TestTopTable:
    def test_renders_counters_and_instants(self):
        events = [
            _counter(i / 10, "cc", rate=float(i)) for i in range(10)
        ] + [_instant(0.55, "slo_burn")]
        out = top_table(events, width=10).render()
        assert "cc.rate" in out
        assert "slo_burn" in out
        assert BLOCKS[-1] in out

    def test_instants_can_be_hidden(self):
        events = [_counter(0.0, "cc", rate=1.0), _counter(1.0, "cc", rate=2.0),
                  _instant(0.5, "slo_burn")]
        out = top_table(events, width=8, instants=False).render()
        assert "slo_burn" not in out

    def test_values_print_in_their_magnitude_format(self):
        events = [_counter(0.0, "q", depth=0.5), _counter(1.0, "q", depth=12345.0)]
        (row,) = top_table(events, width=8).rows
        # lo, hi, last: a fraction at four significant digits, a large
        # value in scientific notation at three.
        assert row[-3:] == ["0.5", "1.23e+04", "1.23e+04"]

    def test_match_filters_series(self):
        events = [_counter(0.0, "cc", rate=1.0), _counter(0.0, "net", depth=1.0),
                  _counter(1.0, "cc", rate=2.0)]
        out = top_table(events, width=8, match="cc").render()
        assert "cc.rate" in out
        assert "net.depth" not in out

    def test_no_matching_series_rejected(self):
        events = [_counter(0.0, "cc", rate=1.0), _counter(1.0, "cc", rate=2.0)]
        with pytest.raises(ConfigError):
            top_table(events, match="nonexistent")

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigError):
            top_table([])

    def test_narrow_width_rejected(self):
        with pytest.raises(ConfigError):
            top_table([_counter(0.0, "cc", rate=1.0)], width=2)

    def test_row_stats(self):
        row = SeriesRow("x", [1.0, None, 3.0])
        assert row.lo == 1.0 and row.hi == 3.0 and row.last == 3.0
