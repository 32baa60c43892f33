"""Structured trace events stamped with simulated time, plus pluggable sinks.

A :class:`Tracer` turns protocol milestones (a channel drop, an SR RTO fire,
a chunk-bitmap close, one DPA worker processing one CQE) into
:class:`TraceEvent` records stamped with **simulated** seconds from
:class:`repro.sim.engine.Simulator`.  Because the DES is deterministic, two
runs with the same seed emit byte-identical traces -- the determinism the
test suite asserts.

Three sinks ship with the subsystem:

* :class:`RingBufferSink` -- bounded in-memory buffer for tests and ad-hoc
  inspection;
* :class:`JsonlSink` -- one canonical JSON object per line, suitable for
  ``grep``/``jq`` pipelines and for byte-level determinism checks;
* :class:`ChromeTraceSink` -- the Chrome/Perfetto ``trace_event`` JSON
  format (https://ui.perfetto.dev loads the output directly): complete
  events (``ph: "X"``) render protocol spans, instants (``ph: "i"``) mark
  drops and timer fires, counter events (``ph: "C"``) plot rates.

Tracing is off by default; every producer guards emission with a single
``tracer.enabled`` attribute check, so a disabled tracer costs nothing on
the hot path.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any, TextIO

from repro.common.errors import ConfigError

#: Microseconds per simulated second (`trace_event` timestamps are in us).
_US = 1e6


def flow_key(msg: int, chunk: int, attempt: int) -> int:
    """Deterministic Perfetto flow-event id for one retransmitted chunk.

    Packs ``(msg, chunk, attempt)`` into a single integer so the ``ph: "s"``
    record at the retransmit trigger (RTO fire, NACK, EC fallback) and the
    ``ph: "f"`` record at the wire transmission share an ``id`` without any
    shared mutable counter -- same-seed runs produce identical ids.
    """
    return ((msg & 0xFFFFFF) << 24) | ((chunk & 0xFFFF) << 8) | (attempt & 0xFF)


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    ``ts`` and ``dur`` are simulated seconds; ``track`` names the logical
    timeline (one Perfetto thread row) the event belongs to, e.g.
    ``net.dc-a<->dc-b.fwd`` or ``dpa.dc-b.dpa.w0``.
    """

    name: str
    cat: str
    ph: str  # "X" complete, "i" instant, "C" counter, "s"/"f" flow start/finish
    ts: float
    track: str
    dur: float | None = None
    args: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts,
            "track": self.track,
        }
        if self.dur is not None:
            out["dur"] = self.dur
        if self.args:
            out["args"] = self.args
        return out

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "TraceEvent":
        return cls(
            name=raw["name"],
            cat=raw["cat"],
            ph=raw["ph"],
            ts=raw["ts"],
            track=raw["track"],
            dur=raw.get("dur"),
            args=raw.get("args", {}),
        )


class TraceSink:
    """Interface every sink implements."""

    def emit(self, event: TraceEvent) -> None:
        """Take one event."""

    def close(self) -> None:
        """Flush and release resources (no-op by default)."""


class RingBufferSink(TraceSink):
    """Keep the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ConfigError(f"ring capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self.total_emitted = 0

    def emit(self, event: TraceEvent) -> None:
        self._events.append(event)
        self.total_emitted += 1

    @property
    def events(self) -> list[TraceEvent]:
        return list(self._events)

    @property
    def dropped(self) -> int:
        """Events evicted because the ring wrapped."""
        return self.total_emitted - len(self._events)


def _canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variation."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class JsonlSink(TraceSink):
    """One canonical-JSON event per line, to a path or file object."""

    def __init__(self, dest: str | TextIO):
        if isinstance(dest, str):
            self._file: TextIO = open(dest, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = dest
            self._owns_file = False
        self.events_written = 0

    def emit(self, event: TraceEvent) -> None:
        self._file.write(_canonical_json(event.to_dict()))
        self._file.write("\n")
        self.events_written += 1

    def close(self) -> None:
        if self._owns_file:
            self._file.close()
        else:
            self._file.flush()

    @staticmethod
    def read(source: str | TextIO) -> list[TraceEvent]:
        """Parse a JSONL trace back into :class:`TraceEvent` objects."""
        if isinstance(source, str):
            with open(source, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        else:
            lines = source.read().splitlines()
        return [TraceEvent.from_dict(json.loads(line)) for line in lines if line]


class ChromeTraceSink(TraceSink):
    """Accumulate events in Chrome ``trace_event`` format.

    Tracks are interned to integer ``tid``s in first-seen order and named
    via ``thread_name`` metadata records, so Perfetto shows one labelled row
    per track.  Timestamps are converted from simulated seconds to the
    format's microseconds.
    """

    PID = 1  # one simulated "process"

    def __init__(self):
        self._tids: dict[str, int] = {}
        self._events: list[dict[str, Any]] = []

    def _tid(self, track: str) -> int:
        tid = self._tids.get(track)
        if tid is None:
            tid = len(self._tids)
            self._tids[track] = tid
        return tid

    def emit(self, event: TraceEvent) -> None:
        rec: dict[str, Any] = {
            "name": event.name,
            "cat": event.cat or "default",
            "ph": event.ph,
            "ts": event.ts * _US,
            "pid": self.PID,
            "tid": self._tid(event.track),
        }
        if event.ph == "X":
            rec["dur"] = (event.dur or 0.0) * _US
        if event.ph == "i":
            rec["s"] = "t"  # thread-scoped instant
        if event.ph in ("s", "f"):
            # Flow events need a shared id; bind the finish to the enclosing
            # slice rather than the next one ("bp": "e").
            rec["id"] = int(event.args.get("flow_id", 0))
            if event.ph == "f":
                rec["bp"] = "e"
        if event.args:
            rec["args"] = dict(event.args)
        self._events.append(rec)

    def trace_events(self) -> list[dict[str, Any]]:
        """Metadata + data records, ready for the ``traceEvents`` array."""
        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": self.PID,
                "tid": 0,
                "args": {"name": "sdr-rdma simulation"},
            }
        ]
        for track, tid in self._tids.items():
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": self.PID,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return meta + self._events

    def to_json(self) -> str:
        return _canonical_json(
            {"traceEvents": self.trace_events(), "displayTimeUnit": "ms"}
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    def __len__(self) -> int:
        return len(self._events)


class Tracer:
    """Emission front-end; producers check ``enabled`` before calling."""

    __slots__ = ("enabled", "_sinks", "_clock")

    def __init__(
        self,
        *,
        enabled: bool = False,
        sinks: Iterable[TraceSink] = (),
    ):
        self.enabled = enabled
        self._sinks: list[TraceSink] = list(sinks)
        self._clock: Callable[[], float] = lambda: 0.0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Set the simulated-time source (done by ``Simulator.__init__``)."""
        self._clock = clock

    # -- emission --------------------------------------------------------------

    def _emit(self, event: TraceEvent) -> None:
        for sink in self._sinks:
            sink.emit(event)

    def instant(self, name: str, *, cat: str, track: str, **args: Any) -> None:
        """A zero-duration marker (a drop, a timer fire, a NACK)."""
        if not self.enabled:
            return
        self._emit(
            TraceEvent(
                name=name, cat=cat, ph="i", ts=self._clock(), track=track,
                args=args,
            )
        )

    def complete(
        self,
        name: str,
        *,
        cat: str,
        track: str,
        start: float,
        end: float | None = None,
        **args: Any,
    ) -> None:
        """A span from ``start`` to ``end`` (default: now)."""
        if not self.enabled:
            return
        stop = self._clock() if end is None else end
        self._emit(
            TraceEvent(
                name=name,
                cat=cat,
                ph="X",
                ts=start,
                track=track,
                dur=max(0.0, stop - start),
                args=args,
            )
        )

    def counter(self, name: str, *, cat: str, track: str, **series: Any) -> None:
        """A sampled counter series (Perfetto renders a stacked plot)."""
        if not self.enabled:
            return
        self._emit(
            TraceEvent(
                name=name, cat=cat, ph="C", ts=self._clock(), track=track,
                args=series,
            )
        )

    def flow_start(
        self, name: str, *, cat: str, track: str, flow_id: int, **args: Any
    ) -> None:
        """Open a Perfetto flow arrow (``ph: "s"``), e.g. a retransmit trigger."""
        self._emit(
            TraceEvent(
                name=name, cat=cat, ph="s", ts=self._clock(), track=track,
                args={"flow_id": flow_id, **args},
            )
        )

    def flow_finish(
        self, name: str, *, cat: str, track: str, flow_id: int, **args: Any
    ) -> None:
        """Close a flow arrow (``ph: "f"``) at the effect site."""
        self._emit(
            TraceEvent(
                name=name, cat=cat, ph="f", ts=self._clock(), track=track,
                args={"flow_id": flow_id, **args},
            )
        )
