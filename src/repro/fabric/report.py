"""Per-tenant fabric reporting: goodput, completion-time tails, fairness.

The fabric's questions are comparative -- did the rogue tenant hurt the
victims, did enforcement help, who got what share -- so everything here
reduces a :class:`~repro.fabric.service.FabricService` run to per-tenant
:class:`TenantReport` rows (goodput, p50/p99 completion time, retransmit
counts) plus the two scalars the fairness literature uses: Jain's
fairness index across tenant goodputs and the victim's retained fraction
of its solo-baseline goodput.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.fabric.service import FabricService
from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.experiments.report import Table
    from repro.telemetry.lineage import LineageAnalyzer


@dataclass(frozen=True)
class TenantReport:
    """One tenant's rollup over a finished run."""

    name: str
    compliant: bool
    flows_submitted: int
    flows_completed: int
    flows_failed: int
    bytes_acked: int
    retransmits: int
    #: Delivered bits/second over ``[0, max(window, tenant's last ACK)]``:
    #: traffic pushed past the arrival window by contention counts as lost
    #: goodput even though the bytes eventually land.
    goodput_bps: float
    #: Completion-time percentiles in seconds (0.0 when nothing completed).
    p50_s: float
    p99_s: float


def per_tenant_reports(
    service: FabricService, duration: float
) -> list[TenantReport]:
    """Reduce a finished service run to per-tenant rows, sorted by name."""
    spans: dict[str, list[float]] = {name: [] for name in service.tenants}
    for ticket in service.flows:
        if ticket.completed is not None:
            spans[ticket.tenant].append(ticket.span)
    out = []
    for name in sorted(service.tenants):
        state = service.tenants[name]
        times = np.asarray(spans[name])
        window = max(duration, state.last_ack)
        out.append(
            TenantReport(
                name=name,
                compliant=state.spec.compliant,
                flows_submitted=state.flows_submitted,
                flows_completed=state.flows_completed,
                flows_failed=state.flows_failed,
                bytes_acked=state.bytes_acked,
                retransmits=state.retransmits,
                goodput_bps=state.bytes_acked * 8.0 / window,
                p50_s=float(np.percentile(times, 50)) if len(times) else 0.0,
                p99_s=float(np.percentile(times, 99)) if len(times) else 0.0,
            )
        )
    return out


def jain_index(values: list[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly equal, 1/n = one hog."""
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0.0:
        return 1.0
    return total * total / (len(values) * squares)


def tenant_table(
    reports: list[TenantReport], *, title: str = "Per-tenant fabric report",
    limit: int | None = None,
) -> Table:
    """Goodput + completion-tail table, worst goodput first."""
    from repro.experiments.report import Table

    table = Table(
        title=title,
        columns=[
            "tenant", "behaved", "flows", "done", "failed", "retx",
            "goodput_gbps", "p50_ms", "p99_ms",
        ],
        notes=(
            f"Jain index over goodput: "
            f"{jain_index([r.goodput_bps for r in reports]):.3f}"
        ),
    )
    rows = sorted(reports, key=lambda r: (r.goodput_bps, r.name))
    if limit is not None:
        rows = rows[:limit]
    for r in rows:
        table.add_row(
            r.name,
            "yes" if r.compliant else "NO",
            r.flows_submitted,
            r.flows_completed,
            r.flows_failed,
            r.retransmits,
            r.goodput_bps / 1e9,
            r.p50_s * 1e3,
            r.p99_s * 1e3,
        )
    return table


def lineage_tenant_table(analyzer: LineageAnalyzer) -> Table:
    """Per-tenant blame rollup from the causal flight recorder.

    Groups completed fabric messages by tenant and shows where each
    tenant's completion time went (dominant attribution category), so an
    operator can tell quota throttling (``cc_wait``) apart from
    loss recovery (``rto_wait``) without reading raw traces.
    """
    from repro.experiments.report import Table

    table = Table(
        title="Per-tenant lineage",
        columns=["tenant", "msgs", "span_p50_ms", "retx", "dominant"],
    )
    for tenant, msgs in analyzer.by_tenant().items():
        spans = sorted(m.span for m in msgs)
        p50 = spans[len(spans) // 2] if spans else 0.0
        blame: dict[str, float] = {}
        for m in msgs:
            for cat, seconds in m.attribution.items():
                blame[cat] = blame.get(cat, 0.0) + seconds
        dominant = max(blame, key=lambda c: blame[c]) if blame else "other"
        table.add_row(
            tenant,
            len(msgs),
            p50 * 1e3,
            sum(m.retransmits for m in msgs),
            dominant,
        )
    return table


def metrics_digest(registry: MetricsRegistry) -> str:
    """Stable hash of the ``fabric`` metrics snapshot (same-seed
    determinism checks)."""
    snapshot = registry.snapshot("fabric")
    payload = json.dumps(snapshot, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()
