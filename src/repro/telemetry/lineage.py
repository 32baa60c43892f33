"""Causal flight recorder: per-message lineage and completion-time attribution.

The correlation pass (this PR) threads a ``(msg, pkt, chunk, attempt)``
correlation key through every trace event the protocol layers emit: the
reliability sender stamps each :class:`~repro.sdr.qp.SdrQp` injection, the
verbs layer copies the key onto wire packets and CQEs, and the channel /
DPA / fault planes echo it back.  Every event therefore joins a per-message
causal chain::

    msg_post -> cts_grant -> tx (attempt 0) -> [loss_drop / fault_drop]
             -> gap_nack / rto_fire / nack_retx -> tx (attempt >= 1)
             -> chunk_close -> decode -> <scheme>_write

:class:`LineageAnalyzer` replays any trace (a live
:class:`~repro.telemetry.trace.RingBufferSink` or a JSONL file) into
:class:`MessageLineage` timelines and attributes each message's completion
time to *exactly one* of the categories below.  The attribution is an exact
partition of ``[posted, completed]`` -- busy intervals come from wire / CPU
spans, idle gaps are classified by the trigger event that ends them -- so
per-message attributions sum to the observed span by construction (the
``residual`` cross-check asserts this).

Attribution categories
======================

==================  =========================================================
``cts_wait``        posted but waiting for the receiver's clear-to-send
``first_transmit``  wire serialization of attempt-0 packets (E[T_SR]'s
                    ``t_start(M)`` term)
``retransmit``      wire serialization of attempt >= 1 packets (loss waste)
``rto_wait``        idle, ended by an RTO fire (the ``alpha*RTT`` penalty)
``loss_recovery``   idle, ended by a NACK-triggered retransmission
``decode``          EC decode CPU time on the receiver
``recovery``        idle, ended by a resumption event (resume request /
                    grant / re-post -- see ``repro.recovery``)
``reroute_wait``    idle, ended by a fabric reroute event (path change,
                    route restoration or a reroute-granted attempt reset
                    -- see ``repro.fabric.health`` / ``chaos``)
``cc_wait``         idle, ended by a congestion-control pacing stall
                    (the sender chose to wait -- see ``repro.cc``)
``ack_wait``        trailing propagation + final-ACK return (>= RTT/2)
``other``           idle not explained by any recorded trigger
==================  =========================================================

A resumed transfer re-posts under a fresh slot whose ``msg_post`` carries
``resumed_from=<original seq>``; the analyzer folds the new slot's events
into the original message's lineage, exactly like EC submessage members.

On a loss-free SR run ``span - cts_wait`` reproduces the analytical
``sr_expected_completion`` (chunks * T_inj + RTT) -- the validation the
tests pin within 5%.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.experiments.report import Table
from repro.telemetry.trace import JsonlSink, TraceEvent

__all__ = [
    "ATTRIBUTION_CATEGORIES",
    "LineageAnalyzer",
    "MessageLineage",
]

#: Every category an idle or busy slice can land in, in report order.
ATTRIBUTION_CATEGORIES = (
    "cts_wait",
    "first_transmit",
    "retransmit",
    "rto_wait",
    "loss_recovery",
    "decode",
    "recovery",
    "reroute_wait",
    "cc_wait",
    "sampling_wait",
    "ack_wait",
    "other",
)

#: Events that mark a loss-recovery trigger when they end an idle gap.
_NACK_TRIGGERS = frozenset({"nack_retx", "gap_nack", "ec_nack", "sr_fallback"})

#: Events that mark a resumption trigger (blamed on ``recovery``).
_RECOVERY_TRIGGERS = frozenset(
    {"resume_begin", "resume_grant", "resume_post", "recv_abandon"}
)

#: Events that mark a fabric reroute trigger (blamed on ``reroute_wait``):
#: the pair's path changed under the flow, a lost route came back, or the
#: reroute granted the segment a fresh attempt budget.
_REROUTE_TRIGGERS = frozenset({"reroute", "route_restored", "resumption"})

#: Events that mark a congestion-control pacing stall (``repro.cc`` emits
#: them on wake, i.e. at the *end* of the idle gap they explain).
_CC_TRIGGERS = frozenset({"cc_stall"})

#: Events of the availability-sampling mode: an idle gap ending with a
#: probe round or repair request is the protocol's detection latency
#: (blamed on ``sampling_wait`` -- the cost of sampling instead of ACKing).
_SAMPLING_TRIGGERS = frozenset({"sample_probe", "repair_req", "repair_retx"})

#: Busy-interval category priority when spans overlap (rarer wins).
_BUSY_PRIORITY = {"decode": 3, "retransmit": 2, "first_transmit": 1}


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
    def attributed_total(self) -> float:
        return sum(self.attribution.values())

    @property
    def residual(self) -> float:
        """``span - sum(attribution)`` -- ~0 by construction."""
        if self.span is None:
            return 0.0
        return self.span - self.attributed_total

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
            if ev.name != "msg_post":
                continue
            msg = self._msg_of(ev)
            if msg is None:
                continue
            resumed_from = ev.args.get("resumed_from")
            if resumed_from is not None and int(resumed_from) != msg:
                # A resumed transfer's fresh slot: fold its events into the
                # original message instead of opening a new lineage.
                self._member_of[msg] = int(resumed_from)
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
                # Every scheme's one success span (``Sender._complete_write``).
                rec.completed = ev.ts + (ev.dur or 0.0)
                rec.posted = ev.ts
            elif ev.name == "fabric_deliver":
                # Fabric completions measure submit-to-last-ACK, so the
                # posted timestamp (the msg_post) is kept as-is.
                rec.completed = ev.ts
            elif ev.name == "write_failed" or ev.name == "global_timeout":
                rec.failed = True
            elif ev.name in ("loss_drop", "tail_drop", "fault_drop"):
                rec.drops += 1
            elif ev.name in ("rto_fire", "nack_retx"):
                rec.retransmits += 1

        for rec in self.messages.values():
            rec.events.sort(key=lambda item: item[0])
            self._attribute(rec)

    # -- attribution -----------------------------------------------------------

    @staticmethod
    def _busy_intervals(rec: MessageLineage) -> list[tuple[float, float, str]]:
        """Wire/CPU spans inside [posted, completed], with their category."""
        assert rec.completed is not None
        out: list[tuple[float, float, str]] = []
        for ts, name, args in rec.events:
            if name == "tx":
                dur = float(args.get("__dur", 0.0))
                cat = "first_transmit" if int(args.get("attempt", 0)) == 0 else "retransmit"
            elif name == "decode":
                dur = float(args.get("__dur", 0.0))
                cat = "decode"
            else:
                continue
            start = max(ts, rec.posted)
            end = min(ts + dur, rec.completed)
            if end > start:
                out.append((start, end, cat))
        return out

    def _attribute(self, rec: MessageLineage) -> None:
        if rec.completed is None:
            rec.attribution = {}
            return
        busy = self._busy_intervals(rec)
        # Sweep [posted, completed] over all interval boundaries; each slice
        # is either covered (highest-priority covering category wins) or an
        # idle gap classified by the trigger event that ends it.
        cuts = {rec.posted, rec.completed}
        for start, end, _ in busy:
            cuts.add(start)
            cuts.add(end)
        points = sorted(cuts)
        attribution = dict.fromkeys(ATTRIBUTION_CATEGORIES, 0.0)

        triggers = [
            (ts, name)
            for ts, name, _ in rec.events
            if name == "rto_fire"
            or name in _NACK_TRIGGERS
            or name in _RECOVERY_TRIGGERS
            or name in _REROUTE_TRIGGERS
            or name in _CC_TRIGGERS
            or name in _SAMPLING_TRIGGERS
        ]
        last_busy_end = max((end for _, end, _ in busy), default=rec.posted)
        first_busy_start = min((start for start, _, _ in busy), default=rec.completed)

        for lo, hi in zip(points, points[1:]):
            if hi <= lo:
                continue
            covering = [c for s, e, c in busy if s <= lo and e >= hi]
            if covering:
                cat = max(covering, key=lambda c: _BUSY_PRIORITY.get(c, 0))
            elif hi <= first_busy_start:
                cat = "cts_wait"
            elif lo >= last_busy_end:
                cat = "ack_wait"
            else:
                # Idle gap in the middle: blame the trigger that ends it
                # (recovery outranks reroute outranks RTO outranks NACK
                # outranks pacing: a resume gap contains the RTO that
                # provoked it, a reroute-ended gap contains the RTOs the
                # dead path caused, and a stall coinciding with a
                # retransmit trigger is a symptom of the loss, not of the
                # pacer).
                ending = [name for ts, name in triggers if lo < ts <= hi]
                if any(n in _RECOVERY_TRIGGERS for n in ending):
                    cat = "recovery"
                elif any(n in _REROUTE_TRIGGERS for n in ending):
                    cat = "reroute_wait"
                elif any(n == "rto_fire" for n in ending):
                    cat = "rto_wait"
                elif any(n in _NACK_TRIGGERS for n in ending):
                    cat = "loss_recovery"
                elif any(n in _CC_TRIGGERS for n in ending):
                    cat = "cc_wait"
                elif any(n in _SAMPLING_TRIGGERS for n in ending):
                    cat = "sampling_wait"
                else:
                    cat = "other"
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

    def summary_table(self, limit: int | None = None) -> Table:
        """Per-message attribution summary (``repro explain``)."""
        table = Table(
            title="Per-message attribution",
            columns=[
                "msg", "proto", "bytes", "span_ms", "retx", "drops",
                "dominant", "dominant_ms",
            ],
        )
        rows = self.completed if limit is None else self.completed[:limit]
        for m in rows:
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
