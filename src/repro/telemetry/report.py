"""Render a :class:`~repro.telemetry.MetricsRegistry` as per-layer tables.

Backs the ``repro report`` CLI subcommand: one table per stack layer
(channels, SDR endpoints, reliability protocols, DPA workers), each row
sourced from the single registry.  ``build_tables`` returns structured
:class:`~repro.experiments.report.Table` objects for tests; ``render_report``
joins their textual renderings.
"""

from __future__ import annotations

from repro.experiments.report import Table
from repro.telemetry.metrics import Histogram, MetricsRegistry


def _groups(registry: MetricsRegistry, prefix: str) -> dict[str, dict[str, object]]:
    """Leaf metrics grouped by the component name under ``prefix``.

    ``net.wan.fwd.packets_dropped`` -> group ``wan.fwd``, leaf
    ``packets_dropped`` (leaf names never contain dots).
    """
    out: dict[str, dict[str, object]] = {}
    dotted = prefix + "."
    for name in registry.names(prefix):
        rest = name[len(dotted):]
        group, _, leaf = rest.rpartition(".")
        out.setdefault(group, {})[leaf] = registry.get(name)
    return out


def _val(leaves: dict[str, object], leaf: str) -> float:
    instrument = leaves.get(leaf)
    return instrument.value if instrument is not None else 0


def build_tables(registry: MetricsRegistry) -> list[Table]:
    """One table per populated stack layer, in stack order."""
    tables: list[Table] = []

    channels = _groups(registry, "net")
    if channels:
        t = Table(
            title="Channels (net.*)",
            columns=["channel", "offered", "dropped", "tail", "ecn", "dup",
                     "delivered_MiB", "drop_rate", "qdelay_us"],
            notes="qdelay_us = serialization backlog at the last enqueue",
        )
        for name in sorted(channels):
            leaves = channels[name]
            offered = _val(leaves, "packets_offered")
            dropped = _val(leaves, "packets_dropped")
            t.add_row(
                name,
                int(offered),
                int(dropped),
                int(_val(leaves, "tail_drops")),
                int(_val(leaves, "ecn_marked")),
                int(_val(leaves, "packets_duplicated")),
                _val(leaves, "bytes_delivered") / 2**20,
                dropped / offered if offered else 0.0,
                _val(leaves, "queue_delay_seconds") * 1e6,
            )
        tables.append(t)

    cc = _groups(registry, "cc")
    if cc:
        t = Table(
            title="Congestion control (cc.*)",
            columns=["sender", "rate_gbps", "paced_pkts", "stalls",
                     "stall_s", "ecn_echoed", "rtt_samples", "losses"],
            notes="repro.cc pacer + controller; see docs/congestion.md",
        )
        for name in sorted(cc):
            leaves = cc[name]
            t.add_row(
                name,
                _val(leaves, "rate_bps") / 1e9,
                int(_val(leaves, "paced_packets")),
                int(_val(leaves, "pacing_stalls")),
                _val(leaves, "stall_seconds"),
                int(_val(leaves, "ecn_marked")),
                int(_val(leaves, "rtt_samples")),
                int(_val(leaves, "loss_signals")),
            )
        tables.append(t)

    faults = _groups(registry, "faults")
    if faults:
        t = Table(
            title="Faults (faults.*)",
            columns=["target", "drops", "corrupted", "delayed", "duplicated",
                     "dpa_stalls", "dpa_crashes"],
            notes="deterministic fault plane (repro.faults); see docs/robustness.md",
        )
        for name in sorted(faults):
            leaves = faults[name]
            t.add_row(
                name,
                int(_val(leaves, "fault_drops")),
                int(_val(leaves, "fault_corrupted")),
                int(_val(leaves, "fault_delayed")),
                int(_val(leaves, "fault_duplicated")),
                int(_val(leaves, "stalls")),
                int(_val(leaves, "crashes")),
            )
        tables.append(t)

    sdr = _groups(registry, "sdr")
    if sdr:
        t = Table(
            title="SDR endpoints (sdr.*)",
            columns=["device", "msgs_sent", "msgs_recv", "chunks_done",
                     "cts", "late_cqes", "dup_pkts", "gen_rollovers"],
        )
        for name in sorted(sdr):
            leaves = sdr[name]
            t.add_row(
                name,
                int(_val(leaves, "messages_sent")),
                int(_val(leaves, "messages_received")),
                int(_val(leaves, "chunks_completed")),
                int(_val(leaves, "cts_sent")),
                int(_val(leaves, "late_cqes_filtered")),
                int(_val(leaves, "duplicate_packets")),
                int(_val(leaves, "generation_rollovers")),
            )
        tables.append(t)

    rel_rows: list[list[object]] = []
    for proto in ("sr", "ec", "gbn", "adaptive"):
        for name, leaves in sorted(_groups(registry, proto).items()):
            hist = leaves.get("write_seconds")
            p99 = hist.percentile(99) if isinstance(hist, Histogram) else 0.0
            rel_rows.append([
                proto,
                name,
                int(_val(leaves, "writes_completed")),
                int(_val(leaves, "retransmitted_chunks")
                    + _val(leaves, "fallback_retransmits")),
                int(_val(leaves, "rto_fires") + _val(leaves, "rto_rewinds")),
                int(_val(leaves, "acks_sent")),
                int(_val(leaves, "nacks_sent")),
                int(_val(leaves, "submessages_decoded")),
                p99,
            ])
    if rel_rows:
        t = Table(
            title="Reliability (sr.* / ec.* / gbn.* / adaptive.*)",
            columns=["proto", "device", "writes", "retx_chunks", "rto",
                     "acks", "nacks", "decoded_subs", "write_p99_s"],
        )
        for row in rel_rows:
            t.add_row(*row)
        tables.append(t)

    workers = _groups(registry, "dpa")
    if workers:
        active = {
            name: leaves for name, leaves in workers.items()
            if _val(leaves, "cqes_processed")
        }
        idle = len(workers) - len(active)
        t = Table(
            title="DPA workers (dpa.*)",
            columns=["worker", "cqes", "chunks_closed", "busy_s"],
            notes=(
                "one row per emulated DPA hardware thread"
                + (f"; {idle} idle workers omitted" if idle else "")
            ),
        )
        for name in sorted(active):
            leaves = active[name]
            t.add_row(
                name,
                int(_val(leaves, "cqes_processed")),
                int(_val(leaves, "chunks_closed")),
                _val(leaves, "busy_seconds"),
            )
        tables.append(t)

    cqs = _groups(registry, "cq")
    if cqs:
        total = sum(int(_val(v, "cqes_posted")) for v in cqs.values())
        overflows = sum(int(_val(v, "overflows")) for v in cqs.values())
        t = Table(
            title="Completion queues (cq.*, aggregated)",
            columns=["queues", "cqes_posted", "overflows"],
        )
        t.add_row(len(cqs), total, overflows)
        tables.append(t)

    return tables


def render_report(registry: MetricsRegistry) -> str:
    """The full plain-text report, one rendered table per layer."""
    tables = build_tables(registry)
    if not tables:
        return "(metrics registry is empty)"
    return "\n\n".join(t.render() for t in tables)
