"""Causal flight recorder: per-message lineage and completion-time attribution.

The protocol layers thread a ``(msg, pkt, chunk, attempt)`` correlation key
through every trace event they emit: the reliability sender stamps each
:class:`~repro.sdr.qp.SdrQp` injection, the verbs layer copies the key onto
wire packets and CQEs, and the channel / DPA / fault planes echo it back.
Every event therefore joins a per-message causal chain::

    msg_post -> cts_grant -> tx (attempt 0) -> [loss_drop / fault_drop]
             -> gap_nack / rto_fire / nack_retx -> tx (attempt >= 1)
             -> chunk_close -> decode -> <scheme>_write

:class:`LineageAnalyzer` replays any trace (a live
:class:`~repro.telemetry.trace.RingBufferSink` or a JSONL file) into
:class:`MessageLineage` timelines and attributes each message's completion
time to *exactly one* category per instant.  The attribution is an exact
partition of ``[posted, completed]`` -- busy intervals come from wire / CPU
spans, idle gaps are classified by the trigger event that ends them -- so
per-message attributions sum to the observed span by construction (the
``residual`` cross-check asserts this).

What each event name means to attribution is decided in one place, the
``_ROLES`` table below; ``ATTRIBUTION_CATEGORIES`` is derived from it.
Three categories belong to no event: ``cts_wait`` (idle before the first
busy span), ``ack_wait`` (idle after the last one: trailing propagation
and the final ACK) and ``other`` (an idle gap no recorded trigger ends).
docs/observability.md describes every category.

A resumed transfer keeps its slot, so its events stay under its own seq.

On a loss-free SR run ``span - cts_wait`` reproduces the analytical
``sr_expected_completion`` (chunks * T_inj + RTT) -- the validation the
tests pin within 5%.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.common.errors import ConfigError
from repro.experiments.report import Table
from repro.telemetry.trace import JsonlSink, TraceEvent

__all__ = [
    "ATTRIBUTION_CATEGORIES",
    "LineageAnalyzer",
    "MessageLineage",
]


class _Role(NamedTuple):
    """What one trace event name means to attribution."""

    kind: str
    #: The category a busy span covers or a trigger's idle gap is blamed on.
    category: str = ""
    #: Trigger precedence: a gap several triggers end goes to the lowest.
    rank: int = 0
    #: Retransmits per event: a constant, or the arg that carries the count.
    retransmits: int | str = 0
    #: Busy spans of attempt >= 1 land here instead of ``category``.
    retry: str = ""


POST, BUSY, TRIGGER, DONE, FAILED, DROP = (
    "post", "busy", "trigger", "done", "failed", "drop"
)

#: The one place a trace event name means something to attribution.  Rows
#: run in report order of the categories they feed.
#:
#: * ``busy`` -- a wire / CPU span covering its slice; where spans overlap
#:   the category in the later row wins (the rarer cost).  A fluid segment
#:   carries no attempt, so a fluid retransmit booking is ``first_transmit``.
#: * ``trigger`` -- an instant that ends an idle gap.  A resume gap contains
#:   the RTO that provoked it, a reroute-ended gap the RTOs the dead path
#:   caused, and a pacing stall next to a retransmit trigger is a symptom
#:   of the loss, not of the pacer: hence the ranks.
#: * ``post`` opens a lineage; ``done`` completes it at the event (a fabric
#:   flow's last ACK: the ``msg_post`` time stays its start); ``failed``
#:   and ``drop`` mark and count.  Every scheme's success span,
#:   ``<scheme>_write`` with ``cat=<scheme>``, completes a lineage by that
#:   rule rather than by name, and names the protocol when no ``msg_post``
#:   did (Go-Back-N posts none).
_ROLES: dict[str, _Role] = {
    "msg_post": _Role(POST),
    "tx": _Role(BUSY, "first_transmit", retry="retransmit"),
    "fluid_segment": _Role(BUSY, "first_transmit"),
    "rto_fire": _Role(TRIGGER, "rto_wait", 2, retransmits=1),
    "rto_rewind": _Role(TRIGGER, "rto_wait", 2, retransmits="chunks"),
    "nack_retx": _Role(TRIGGER, "loss_recovery", 3, retransmits=1),
    "gap_nack": _Role(TRIGGER, "loss_recovery", 3),
    "ec_nack": _Role(TRIGGER, "loss_recovery", 3),
    "sr_fallback": _Role(TRIGGER, "loss_recovery", 3),
    "decode": _Role(BUSY, "decode"),
    "resume_begin": _Role(TRIGGER, "recovery", 0),
    "resume_grant": _Role(TRIGGER, "recovery", 0),
    "resume_post": _Role(TRIGGER, "recovery", 0),
    "recv_abandon": _Role(TRIGGER, "recovery", 0),
    "reroute": _Role(TRIGGER, "reroute_wait", 1),
    "route_restored": _Role(TRIGGER, "reroute_wait", 1),
    "resumption": _Role(TRIGGER, "reroute_wait", 1),
    "cc_stall": _Role(TRIGGER, "cc_wait", 4),
    "sample_probe": _Role(TRIGGER, "sampling_wait", 5),
    "repair_req": _Role(TRIGGER, "sampling_wait", 5),
    "repair_retx": _Role(TRIGGER, "sampling_wait", 5, retransmits=1),
    "fabric_deliver": _Role(DONE),
    "write_failed": _Role(FAILED),
    "global_timeout": _Role(FAILED),
    "delivery_error": _Role(FAILED),
    "loss_drop": _Role(DROP),
    "tail_drop": _Role(DROP),
    "fault_drop": _Role(DROP),
}
_NONE = _Role("")

#: Every category an idle or busy slice can land in, in report order.
ATTRIBUTION_CATEGORIES = (
    "cts_wait",
    *dict.fromkeys(
        cat for role in _ROLES.values() for cat in (role.category, role.retry) if cat
    ),
    "ack_wait",
    "other",
)


@dataclass
class MessageLineage:
    """One message's reconstructed causal timeline."""

    msg: int
    protocol: str = ""
    #: Owning tenant (``repro.fabric`` traffic); None for single-tenant runs.
    tenant: str | None = None
    bytes: int = 0
    chunks: int = 0
    posted: float = 0.0
    completed: float | None = None
    failed: bool = False
    retransmits: int = 0
    drops: int = 0
    #: Raw events touching this message, time-ordered: ``(ts, name, args)``.
    events: list[tuple[float, str, dict]] = field(default_factory=list)
    #: Seconds per attribution category (exact partition of ``span``).
    attribution: dict[str, float] = field(default_factory=dict)

    @property
    def span(self) -> float | None:
        """Observed completion time, or None while in flight / failed."""
        if self.completed is None:
            return None
        return self.completed - self.posted

    @property
    def residual(self) -> float:
        """``span - sum(attribution)`` -- ~0 by construction."""
        if self.span is None:
            return 0.0
        return self.span - sum(self.attribution.values())

    @property
    def dominant(self) -> str:
        """Category holding the largest share of the span."""
        if not self.attribution:
            return "other"
        return max(self.attribution, key=lambda c: self.attribution[c])

    def timeline(self) -> Table:
        """Per-event timeline table (``repro explain <msg>``)."""
        table = Table(
            title=f"Timeline msg={self.msg}",
            columns=["t_us", "event", "detail"],
        )
        for ts, name, args in self.events:
            detail = " ".join(
                f"{k}={v}" for k, v in sorted(args.items())
                if k not in ("msg", "seq")
                and not k.startswith("__")
                and not isinstance(v, (list, dict))
            )
            table.add_row((ts - self.posted) * 1e6, name, detail)
        return table


class LineageAnalyzer:
    """Replay a trace into per-message timelines with blame attribution."""

    def __init__(self, events: list[TraceEvent]):
        self.messages: dict[int, MessageLineage] = {}
        #: EC submessage seq -> parent message seq.
        self._member_of: dict[int, int] = {}
        self._build(sorted(events, key=lambda e: (e.ts, e.track, e.name)))

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_events(cls, events) -> "LineageAnalyzer":
        """Analyze an in-memory event list (e.g. ``RingBufferSink.events``)."""
        return cls(list(events))

    @classmethod
    def from_jsonl(cls, path: str) -> "LineageAnalyzer":
        """Analyze a JSONL trace file written by :class:`JsonlSink`."""
        try:
            events = JsonlSink.read(path)
        except OSError as exc:
            raise ConfigError(f"cannot read trace {path!r}: {exc}") from exc
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(
                f"trace {path!r} is not a valid JSONL trace: {exc}"
            ) from exc
        return cls(events)

    @staticmethod
    def _msg_of(event: TraceEvent) -> int | None:
        args = event.args
        msg = args.get("msg")
        if msg is None:
            msg = args.get("seq")  # legacy correlation key
        return int(msg) if msg is not None else None

    def _parent(self, msg: int) -> int:
        return self._member_of.get(msg, msg)

    def _build(self, events: list[TraceEvent]) -> None:
        # Pass 1: message creation + EC member->parent mapping must be known
        # before member events are filed.
        for ev in events:
            msg = self._msg_of(ev)
            if msg is None or _ROLES.get(ev.name, _NONE).kind != POST:
                continue
            rec = self.messages.setdefault(msg, MessageLineage(msg=msg))
            rec.protocol = ev.cat
            rec.posted = ev.ts
            rec.bytes = int(ev.args.get("bytes", 0))
            rec.chunks = int(ev.args.get("chunks", 0))
            tenant = ev.args.get("tenant")
            if tenant is not None:
                rec.tenant = str(tenant)
            for member in list(ev.args.get("data_seqs", ())) + list(
                ev.args.get("parity_seqs", ())
            ):
                if int(member) != msg:
                    self._member_of[int(member)] = msg

        # Pass 2: file every correlated event under its (parent) message.
        for ev in events:
            msg = self._msg_of(ev)
            if msg is None:
                continue
            rec = self.messages.get(self._parent(msg))
            if rec is None:
                # Trace without a msg_post (partial ring): synthesize.
                rec = self.messages.setdefault(msg, MessageLineage(msg=msg))
                rec.posted = ev.ts
            args = dict(ev.args)
            if ev.dur is not None:
                args["__dur"] = ev.dur
            rec.events.append((ev.ts, ev.name, args))
            if ev.name == f"{ev.cat}_write":
                rec.completed = ev.ts + (ev.dur or 0.0)
                rec.posted = ev.ts
                rec.protocol = rec.protocol or ev.cat
                continue
            role = _ROLES.get(ev.name, _NONE)
            if role.kind == DONE:
                rec.completed = ev.ts
            elif role.kind == FAILED:
                rec.failed = True
            elif role.kind == DROP:
                rec.drops += 1
            retx = role.retransmits
            rec.retransmits += int(args.get(retx, 0)) if isinstance(retx, str) else retx

        for rec in self.messages.values():
            rec.events.sort(key=lambda item: item[0])
            self._attribute(rec)

    # -- attribution -----------------------------------------------------------

    @staticmethod
    def _busy_intervals(rec: MessageLineage) -> list[tuple[float, float, int]]:
        """Wire/CPU spans inside [posted, completed], with their category's
        index in ``ATTRIBUTION_CATEGORIES``."""
        assert rec.completed is not None
        out: list[tuple[float, float, int]] = []
        for ts, name, args in rec.events:
            role = _ROLES.get(name, _NONE)
            if role.kind != BUSY:
                continue
            cat = role.retry if role.retry and args.get("attempt") else role.category
            start = max(ts, rec.posted)
            end = min(ts + float(args.get("__dur", 0.0)), rec.completed)
            if end > start:
                out.append((start, end, ATTRIBUTION_CATEGORIES.index(cat)))
        return out

    def _attribute(self, rec: MessageLineage) -> None:
        if rec.completed is None:
            rec.attribution = {}
            return
        busy = self._busy_intervals(rec)
        # Sweep [posted, completed] over all interval boundaries; each slice
        # is either covered (the latest category in the table wins) or an
        # idle gap classified by the trigger events that end it.
        cuts = {rec.posted, rec.completed}
        for start, end, _ in busy:
            cuts.add(start)
            cuts.add(end)
        points = sorted(cuts)
        slot = {p: i for i, p in enumerate(points)}
        cover = [-1] * len(points)
        for start, end, cat in busy:
            for i in range(slot[start], slot[end]):
                if cat > cover[i]:
                    cover[i] = cat
        triggers = [
            (ts, role)
            for ts, name, _ in rec.events
            if (role := _ROLES.get(name, _NONE)).kind == TRIGGER
        ]
        times = [ts for ts, _ in triggers]
        last_busy_end = max((end for _, end, _ in busy), default=rec.posted)
        first_busy_start = min((start for start, _, _ in busy), default=rec.completed)

        attribution = dict.fromkeys(ATTRIBUTION_CATEGORIES, 0.0)
        for i, (lo, hi) in enumerate(zip(points, points[1:])):
            if cover[i] >= 0:
                cat = ATTRIBUTION_CATEGORIES[cover[i]]
            elif hi <= first_busy_start:
                cat = "cts_wait"
            elif lo >= last_busy_end:
                cat = "ack_wait"
            else:
                ending = triggers[bisect_right(times, lo):bisect_right(times, hi)]
                cat = min(ending, key=lambda t: t[1].rank)[1].category if ending else "other"
            attribution[cat] += hi - lo
        rec.attribution = attribution

    # -- queries ---------------------------------------------------------------

    @property
    def completed(self) -> list[MessageLineage]:
        return sorted(
            (m for m in self.messages.values() if m.completed is not None),
            key=lambda m: m.msg,
        )

    def get(self, msg: int) -> MessageLineage | None:
        return self.messages.get(msg)

    def by_tenant(self) -> dict[str, list[MessageLineage]]:
        """Completed messages grouped by owning tenant, sorted by name.

        Only fabric traffic stamps a tenant; single-tenant traces yield an
        empty mapping.
        """
        out: dict[str, list[MessageLineage]] = {}
        for m in self.completed:
            if m.tenant is not None:
                out.setdefault(m.tenant, []).append(m)
        return {name: out[name] for name in sorted(out)}

    def p50_span(self) -> float:
        spans = sorted(m.span for m in self.completed)
        if not spans:
            return 0.0
        mid = len(spans) // 2
        if len(spans) % 2:
            return spans[mid]
        return 0.5 * (spans[mid - 1] + spans[mid])

    def stragglers(self, k: float = 2.0) -> list[MessageLineage]:
        """Messages slower than ``k * p50`` span, slowest first."""
        if k <= 0:
            raise ConfigError(f"straggler factor must be > 0, got {k}")
        p50 = self.p50_span()
        if p50 <= 0:
            return []
        slow = [m for m in self.completed if m.span > k * p50]
        return sorted(slow, key=lambda m: -m.span)

    def check(self, tolerance: float = 1e-9) -> None:
        """Assert every attribution sums to its span (exactness cross-check)."""
        for m in self.completed:
            if abs(m.residual) > tolerance * max(m.span, 1e-12):
                raise ConfigError(
                    f"lineage attribution for msg={m.msg} off by "
                    f"{m.residual:.3e} s (span {m.span:.3e} s)"
                )

    # -- reporting -------------------------------------------------------------

    def publish(self, registry) -> None:
        """Export ``lineage.*`` metrics into a registry."""
        scope = registry.scope("lineage")
        done = self.completed
        scope.counter("messages").inc(len(done))
        scope.counter("stragglers").inc(len(self.stragglers()))
        span_h = scope.histogram("span_seconds")
        for m in done:
            span_h.observe(m.span)
        for cat in ATTRIBUTION_CATEGORIES:
            scope.counter(f"{cat}_seconds").inc(
                sum(m.attribution.get(cat, 0.0) for m in done)
            )

    def blame_table(self) -> Table:
        """Aggregate per-category blame across completed messages."""
        done = self.completed
        total = sum(m.span for m in done) or 1.0
        table = Table(
            title="Lineage blame",
            columns=["category", "seconds", "share_pct"],
            notes=f"{len(done)} completed messages; categories partition each span",
        )
        for cat in ATTRIBUTION_CATEGORIES:
            seconds = sum(m.attribution.get(cat, 0.0) for m in done)
            table.add_row(cat, seconds, 100.0 * seconds / total)
        return table

    def summary_table(self) -> Table:
        """Per-message attribution summary (``repro explain``)."""
        table = Table(
            title="Per-message attribution",
            columns=[
                "msg", "proto", "bytes", "span_ms", "retx", "drops",
                "dominant", "dominant_ms",
            ],
        )
        for m in self.completed:
            table.add_row(
                m.msg,
                m.protocol,
                m.bytes,
                m.span * 1e3,
                m.retransmits,
                m.drops,
                m.dominant,
                m.attribution.get(m.dominant, 0.0) * 1e3,
            )
        return table

    def straggler_table(self, k: float = 2.0, worst: int = 5) -> Table:
        """Worst-``worst`` stragglers with their dominant blame."""
        table = Table(
            title=f"Stragglers (> {k:g} x p50)",
            columns=["msg", "span_ms", "p50_ratio", "dominant", "dominant_ms"],
            notes=f"p50 span = {self.p50_span() * 1e3:.4g} ms",
        )
        p50 = self.p50_span()
        for m in self.stragglers(k)[:worst]:
            table.add_row(
                m.msg,
                m.span * 1e3,
                m.span / p50 if p50 > 0 else 0.0,
                m.dominant,
                m.attribution.get(m.dominant, 0.0) * 1e3,
            )
        return table
