"""Command-line interface: ``python -m repro <command>`` or ``sdr-rdma``.

Commands:

* ``plan``        -- rank reliability schemes for a deployment (the paper's
  "design and tune the reliability layer" use case).
* ``model``       -- evaluate the SR/EC completion-time models at one point.
* ``campaign``    -- run the synthetic WAN drop-rate campaign (Figure 2).
* ``report``      -- run one simulated WAN transfer and summarize its
  telemetry registry per layer (optionally dumping the trace), including a
  per-message lineage section.
* ``chaos``       -- run a named deterministic fault schedule end-to-end
  (blackouts, reorder storms, DPA crashes, ...) and report the fallout plus
  a per-message completion-time attribution table.
* ``explain``     -- replay a JSONL trace into per-message timelines with
  completion-time blame (see :mod:`repro.telemetry.lineage`).
* ``top``         -- render ASCII sparklines of a recorded JSONL trace's
  counter/instant series (cc rate, backlog, SLO burns, ...).
* ``fabric``      -- run a multi-tenant fairness/isolation or open-loop
  scale experiment on the ``repro.fabric`` RDMA-as-a-service layer and
  report per-tenant goodput and completion-time tails.
* ``experiments`` -- regenerate paper figures (delegates to
  :mod:`repro.experiments.__main__`).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from repro.cc import CC_ALGORITHMS
from repro.common.errors import ConfigError
from repro.common.units import KiB, MiB, distance_to_rtt
from repro.experiments.report import Table
from repro.models.decode_prob import p_decode_mds, p_decode_xor, p_fallback
from repro.models.ec_model import ec_expected_completion, ec_sample_completion
from repro.models.params import ModelParams, packet_to_chunk_drop
from repro.models.sr_model import (
    sr_completion_percentile,
    sr_expected_completion,
    sr_sample_completion,
)
from repro.models.stats import summarize
from repro.telemetry.demo import PROTOCOLS as DEMO_PROTOCOLS

import numpy as np


def _params(args) -> ModelParams:
    ppc = max(1, int(args.chunk_kib // args.mtu_kib))
    return ModelParams(
        bandwidth_bps=args.bandwidth_gbps * 1e9,
        rtt=distance_to_rtt(args.distance_km),
        chunk_bytes=int(args.chunk_kib * KiB),
        drop_probability=packet_to_chunk_drop(args.drop, ppc),
    )


def _add_link_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bandwidth-gbps", type=float, default=400.0)
    parser.add_argument("--distance-km", type=float, default=3750.0)
    parser.add_argument(
        "--drop", type=float, default=1e-5,
        help="per-packet (MTU) drop probability",
    )
    parser.add_argument("--size-mib", type=float, default=128.0)
    parser.add_argument("--chunk-kib", type=float, default=64.0)
    parser.add_argument("--mtu-kib", type=float, default=4.0)


def _add_cc_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cc", choices=CC_ALGORITHMS, default="none",
        help="congestion-control algorithm for the sender (repro.cc)",
    )
    parser.add_argument(
        "--buffer-kib", type=float, default=0.0,
        help="channel tail-drop buffer in KiB (0 = unbounded)",
    )
    parser.add_argument(
        "--ecn-kib", type=float, default=0.0,
        help="ECN CE-marking backlog threshold in KiB (0 = no marking)",
    )


def cmd_plan(args) -> int:
    params = _params(args)
    size = int(args.size_mib * MiB)
    chunks = params.chunks_in(size)
    ideal = params.ideal_completion(size)
    rng = np.random.default_rng(args.seed)
    nsub32 = max(1, -(-chunks // 32))
    table = Table(
        title=(
            f"Reliability plan: {args.size_mib:g} MiB over "
            f"{args.bandwidth_gbps:g} Gbit/s, {args.distance_km:g} km, "
            f"P_pkt={args.drop:g}"
        ),
        columns=["scheme", "mean_ms", "p999_ms", "slowdown", "notes"],
        notes=f"ideal lossless completion {ideal * 1e3:.3f} ms",
    )
    rows = []
    for name, rto in (("SR RTO", 3.0), ("SR NACK", 1.0)):
        p = ModelParams(
            bandwidth_bps=params.bandwidth_bps, rtt=params.rtt,
            chunk_bytes=params.chunk_bytes,
            drop_probability=params.drop_probability, rto_rtts=rto,
        )
        mean = sr_expected_completion(p, chunks)
        p999 = sr_completion_percentile(p, chunks, 99.9)
        rows.append((name, mean, p999, ""))
    for codec, k, m in (("mds", 32, 8), ("mds", 32, 4), ("xor", 32, 8)):
        mean = ec_expected_completion(params, chunks, k=k, m=m, codec=codec)
        samples = ec_sample_completion(
            params, chunks, args.samples, k=k, m=m, codec=codec, rng=rng
        )
        p_dec = (
            p_decode_mds(params.drop_probability, k, m)
            if codec == "mds"
            else p_decode_xor(params.drop_probability, k, m)
        )
        rows.append(
            (
                f"EC {codec.upper()}({k},{m})",
                mean,
                float(np.percentile(samples, 99.9)),
                f"+{m / k:.0%} bw, P_fb={p_fallback(p_dec, nsub32):.2g}",
            )
        )
    for name, mean, p999, note in sorted(rows, key=lambda r: r[1]):
        table.add_row(
            name, round(mean * 1e3, 3), round(p999 * 1e3, 3),
            round(mean / ideal, 3), note,
        )
    print(table.render())
    print(f"\nrecommended: {table.rows[0][0]}")
    return 0


def cmd_model(args) -> int:
    params = _params(args)
    size = int(args.size_mib * MiB)
    chunks = params.chunks_in(size)
    rng = np.random.default_rng(args.seed)
    sr = summarize(sr_sample_completion(params, chunks, args.samples, rng=rng))
    ec = summarize(
        ec_sample_completion(params, chunks, args.samples, k=32, m=8, rng=rng)
    )
    table = Table(
        title=f"Model point: {args.size_mib:g} MiB, P_chunk={params.drop_probability:.3g}",
        columns=["protocol", "analytic_ms", "mc_mean_ms", "mc_p999_ms"],
    )
    table.add_row(
        "SR RTO",
        round(sr_expected_completion(params, chunks) * 1e3, 3),
        round(sr.mean * 1e3, 3),
        round(sr.p999 * 1e3, 3),
    )
    table.add_row(
        "EC MDS(32,8)",
        round(ec_expected_completion(params, chunks) * 1e3, 3),
        round(ec.mean * 1e3, 3),
        round(ec.p999 * 1e3, 3),
    )
    print(table.render())
    return 0


def cmd_campaign(args) -> int:
    from repro.experiments import fig02

    table = fig02.run(trials=args.trials, seed=args.seed)
    print(table.render())
    return 0


def _write_json(path: str, payload: dict, label: str = "JSON") -> None:
    """Write ``payload`` as indented, key-sorted JSON, creating its directory."""
    import json
    import os

    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{label} written to {path}")


def _export_registry(args, registry, meta: dict) -> None:
    """The ``--metrics-json`` / ``--openmetrics`` epilogue of every DES command.

    ``--metrics-json`` has one shape for report/chaos/fabric:
    ``{"meta": <command context>, "metrics": <full registry snapshot>}``.
    """
    if args.metrics_json:
        _write_json(
            args.metrics_json, {"meta": meta, "metrics": registry.snapshot()},
            "Metrics JSON",
        )
    if args.openmetrics:
        from repro.telemetry import write_openmetrics

        samples = write_openmetrics(registry, args.openmetrics)
        print(f"OpenMetrics written to {args.openmetrics} ({samples} samples)")


def _add_export_args(
    parser, trace_help: str = "write the raw trace-event stream as JSON Lines"
) -> None:
    """``--trace-jsonl`` / ``--metrics-json`` / ``--openmetrics``."""
    parser.add_argument("--trace-jsonl", metavar="PATH", help=trace_help)
    parser.add_argument(
        "--metrics-json", metavar="PATH",
        help="dump the final metrics registry snapshot as JSON",
    )
    parser.add_argument(
        "--openmetrics", metavar="PATH",
        help="export the final metrics registry in OpenMetrics text format",
    )


def _lineage_section(ring) -> str:
    """Render the Lineage section for ``report`` / ``chaos`` output."""
    from repro.telemetry.lineage import LineageAnalyzer

    analyzer = LineageAnalyzer.from_events(ring.events)
    parts = [analyzer.summary_table().render(), analyzer.blame_table().render()]
    if analyzer.stragglers():
        parts.append(analyzer.straggler_table().render())
    return "\n\n".join(parts)


def _telemetry(args, *sinks):
    """A tracing ``Telemetry`` over ``sinks`` (None entries skipped) and a
    ``--trace-jsonl`` sink when asked; returns it and that sink."""
    from repro.telemetry import JsonlSink, Telemetry

    jsonl = JsonlSink(args.trace_jsonl) if args.trace_jsonl else None
    sinks = [sink for sink in (*sinks, jsonl) if sink is not None]
    return Telemetry(trace=bool(sinks), trace_sinks=sinks), jsonl


def _close_jsonl(args, jsonl, lead: str = "") -> None:
    if jsonl is not None:
        written = jsonl.events_written
        jsonl.close()
        print(f"{lead}JSONL trace written to {args.trace_jsonl} ({written} events)")


def _demo_kwargs(args, telemetry) -> dict:
    """What ``report`` and ``chaos`` both hand :func:`run_demo`."""
    return dict(
        protocol=args.protocol,
        messages=args.messages,
        message_bytes=int(args.size_mib * MiB),
        drop=args.drop,
        bandwidth_bps=args.bandwidth_gbps * 1e9,
        distance_km=args.distance_km,
        mtu_bytes=int(args.mtu_kib * KiB),
        chunk_bytes=int(args.chunk_kib * KiB),
        seed=args.seed,
        telemetry=telemetry,
        cc=args.cc,
        buffer_bytes=int(args.buffer_kib * KiB),
        ecn_threshold_bytes=int(args.ecn_kib * KiB),
    )


def cmd_report(args) -> int:
    from repro.telemetry import ChromeTraceSink, RingBufferSink
    from repro.telemetry.demo import run_demo
    from repro.telemetry.report import render_report

    # The lineage section always needs events; the ring is internal and
    # bounded, so it rides along even when no trace file was requested.
    ring = RingBufferSink(capacity=1 << 20)
    chrome = ChromeTraceSink() if args.trace else None
    telemetry, jsonl = _telemetry(args, ring, chrome)
    result = run_demo(nack=args.nack, **_demo_kwargs(args, telemetry))
    summary = Table(
        title=(
            f"Run summary: {args.messages} x {args.size_mib:g} MiB via "
            f"{args.protocol.upper()} over {args.distance_km:g} km, "
            f"P_pkt={args.drop:g}"
        ),
        columns=["protocol", "messages", "elapsed_s", "goodput_gbps", "metrics"],
    )
    summary.add_row(
        result.protocol, result.messages, round(result.elapsed, 6),
        round(result.goodput_gbps, 3), len(result.telemetry.metrics),
    )
    print(summary.render())
    print()
    print(render_report(result.telemetry.metrics))
    print()
    print(_lineage_section(ring))
    if chrome is not None:
        chrome.write(args.trace)
        print(f"\nChrome trace written to {args.trace} ({len(chrome)} events)")
    _close_jsonl(args, jsonl)
    _export_registry(args, result.telemetry.metrics, {
        "command": "report",
        "protocol": result.protocol,
        "seed": args.seed,
        "messages": result.messages,
        "elapsed_s": result.elapsed,
        "goodput_gbps": result.goodput_gbps,
    })
    return 0


def cmd_chaos(args) -> int:
    from repro.faults import NAMED_SCHEDULES, named_schedule
    from repro.reliability.ec import EcConfig
    from repro.reliability.sampling import SamplingConfig
    from repro.reliability.sr import SrConfig
    from repro.telemetry import RingBufferSink
    from repro.telemetry.demo import run_demo
    from repro.telemetry.report import render_report

    if args.list:
        for name in sorted(NAMED_SCHEDULES):
            print(name)
        return 0
    rtt = distance_to_rtt(args.distance_km)
    schedule = named_schedule(args.schedule, rtt=rtt)
    ring = RingBufferSink(capacity=1 << 20)
    telemetry, jsonl = _telemetry(args, ring)
    # Hardened configs: adaptive RTO + backoff + bounded retry budgets so
    # every fault ends in delivery or a clean error completion, never a wedge.
    sr_config = SrConfig(
        nack_enabled=args.nack,
        adaptive_rto=True,
        rto_backoff=True,
        max_message_retransmits=2000,
        serve_deadline_rtts=600.0,
    )
    ec_config = EcConfig(serve_deadline_rtts=600.0)
    sampling_config = SamplingConfig(
        max_message_retransmits=2000,
        serve_deadline_rtts=600.0,
    )
    result = run_demo(
        faults=schedule,
        sr_config=sr_config,
        ec_config=ec_config,
        sampling_config=sampling_config,
        planes=args.planes,
        spread=args.spread,
        recover=args.recover,
        **_demo_kwargs(args, telemetry),
    )
    delivered = result.messages - result.failed_writes
    summary = Table(
        title=(
            f"Chaos run: schedule={schedule.name!r} over "
            f"{args.distance_km:g} km via {args.protocol.upper()}"
        ),
        columns=["protocol", "messages", "delivered", "failed",
                 "elapsed_s", "goodput_gbps"],
        notes="failed writes completed with a clean error, not a wedge",
    )
    summary.add_row(
        result.protocol, result.messages, delivered, result.failed_writes,
        round(result.elapsed, 6), round(result.goodput_gbps, 3),
    )
    print(summary.render())
    print()
    print(render_report(result.telemetry.metrics))
    if args.recover:
        metrics = result.telemetry.metrics
        recovery = Table(
            title="Recovery: resumed vs retransmitted chunks",
            columns=["resumes_started", "resumes_completed", "resume_failures",
                     "chunks_skipped", "chunks_retransmitted",
                     "breaker_opens", "breaker_closes"],
            notes="chunks_skipped = already delivered before the resume, "
                  "never re-sent",
        )

        def _total(metric: str) -> int:
            return sum(
                metrics.value(name)
                for name in metrics.names("recovery")
                if name.endswith(f".{metric}")
            )

        recovery.add_row(
            _total("resumes_started"), _total("resumes_completed"),
            _total("resume_failures"), _total("resumed_chunks_skipped"),
            _total("resumed_chunks_retransmitted"), _total("breaker_opens"),
            _total("breaker_closes"),
        )
        print()
        print(recovery.render())
    print()
    print(_lineage_section(ring))
    _close_jsonl(args, jsonl, "\n")
    _export_registry(args, result.telemetry.metrics, {
        "command": "chaos",
        "schedule": schedule.name,
        "protocol": result.protocol,
        "seed": args.seed,
        "messages": result.messages,
        "failed_writes": result.failed_writes,
    })
    if args.recover and result.failed_writes:
        print(
            f"error: {result.failed_writes} write(s) still failed "
            f"with recovery armed"
        )
        return 1
    return 0


def cmd_explain(args) -> int:
    from repro.telemetry.lineage import LineageAnalyzer

    analyzer = LineageAnalyzer.from_jsonl(args.trace)
    if not analyzer.messages:
        raise ConfigError(
            f"trace {args.trace!r} contains no correlated message events "
            f"(was it recorded with tracing enabled?)"
        )
    if args.msg is not None:
        lineage = analyzer.get(args.msg)
        if lineage is None:
            raise ConfigError(
                f"no message seq={args.msg} in trace {args.trace!r}; "
                f"have {sorted(analyzer.messages)}"
            )
        print(lineage.timeline().render())
        print()
    print(analyzer.summary_table().render())
    print()
    print(analyzer.blame_table().render())
    print()
    print(analyzer.straggler_table(args.straggler_k, args.worst).render())
    return 0


def cmd_top(args) -> int:
    from repro.telemetry import JsonlSink
    from repro.telemetry.top import top_table

    events = JsonlSink.read(args.trace)
    table = top_table(
        events,
        width=args.width,
        limit=args.limit,
        match=args.match,
        instants=not args.no_instants,
    )
    print(table.render())
    return 0


def _slo_json(summary) -> dict | None:
    """SLO compliance as a JSON-ready dict (None when not armed)."""
    if summary is None:
        return None
    return {
        "compliant": summary.compliant,
        "burn_windows": summary.burn_windows,
        "windows_evaluated": summary.windows_evaluated,
        "rows": [asdict(r) for r in summary.rows],
    }


def cmd_fabric(args) -> int:
    from repro.telemetry import RingBufferSink, SloConfig

    ring = None
    if args.lineage:
        if args.preset == "scale":
            raise ConfigError("--lineage traces are too large at scale")
        ring = RingBufferSink(capacity=1 << 20)
    # The scenario builds its own simulator; hand it a registry we keep
    # a handle on so the exporters can read it afterwards.
    telemetry, jsonl = _telemetry(args, ring)
    slo = SloConfig(window=args.slo_window) if args.slo else None
    try:
        return _cmd_fabric_dispatch(args, telemetry, ring, slo)
    finally:
        _close_jsonl(args, jsonl)


#: The per-tenant fields of the smoke / fairness ``--json`` rows.
_TENANT_FIELDS = (
    "compliant", "flows_submitted", "flows_completed", "flows_failed",
    "retransmits", "goodput_bps", "p50_s", "p99_s",
)


def _cmd_fabric_dispatch(args, telemetry, ring, slo) -> int:
    """Run one fabric preset, then the epilogue every preset shares.

    A preset builds its tables, its own ``--json`` fields and the messages
    of the gates it fails; the epilogue prints the tables and the tenant
    lineage, writes ``--json`` and the registry exports under the common
    fields, and applies the SLO gate before the preset's.
    """
    import dataclasses

    from repro.fabric import (
        ChaosConfig,
        FairnessConfig,
        ScaleConfig,
        chaos_scenario,
        fairness_scenario,
        scale_scenario,
        smoke_config,
        tenant_table,
    )

    errors = []
    if args.chaos:
        config = ChaosConfig(
            schedule=args.chaos,
            seed=args.seed,
            cc=args.cc,
            health=not args.no_health,
        )
        result = chaos_scenario(config, telemetry=telemetry, slo=slo)
        summary = Table(
            title=(
                f"Fabric chaos: {config.schedule}, cc={config.cc}, "
                f"seed={config.seed}, edge health "
                f"{'on' if config.health else 'OFF (static routing)'}"
            ),
            columns=["messages", "completed", "failed", "delivery_errors",
                     "survival", "reroutes", "drained_ms", "digest"],
            notes="survival = completed / messages; reroutes = pair path changes",
        )
        summary.add_row(
            result.messages, result.completed, result.failed,
            result.delivery_errors, round(result.survival, 4),
            int(result.reroute["path_changes"]),
            round(result.drained_at * 1e3, 3), result.digest[:16],
        )
        tables = [summary]
        if result.breaker_states:
            states = Table(
                title="Non-closed breakers at drain", columns=["edge", "state"]
            )
            for edge, state in sorted(result.breaker_states.items()):
                states.add_row(edge, state)
            tables.append(states)
        fields = {
            "health": config.health,
            "rtt_s": result.rtt,
            "messages": result.messages,
            "completed": result.completed,
            "failed": result.failed,
            "delivery_errors": result.delivery_errors,
            "survival": result.survival,
            "drained_s": result.drained_at,
            "reroute": result.reroute,
            "edge_health": result.edge_health,
            "breaker_states": result.breaker_states,
        }
        if args.min_survival is not None and result.survival < args.min_survival:
            errors.append(
                f"survival {result.survival:.4f} below required "
                f"{args.min_survival:g}"
            )
        if result.delivery_errors and config.schedule != "fabric_partition":
            # Only a true partition may end flows in DeliveryError; under any
            # single-fault schedule rerouting must carry every flow through.
            errors.append(
                f"{result.delivery_errors} flow(s) ended in DeliveryError "
                f"under non-partition chaos"
            )
    elif args.preset == "scale":
        config = ScaleConfig(
            tenants=args.tenants,
            duration=args.duration,
            offered_load_bps=args.offered_gbps * 1e9,
            cc=args.cc,
            seed=args.seed,
            fluid=args.fast_path,
        )
        result = scale_scenario(config, telemetry=telemetry, slo=slo)
        summary = Table(
            title=(
                f"Fabric scale: {config.tenants} tenants, "
                f"{result.messages} messages, cc={config.cc}, seed={config.seed}"
            ),
            columns=["messages", "completed", "failed", "total_gib",
                     "drained_ms", "digest"],
        )
        summary.add_row(
            result.messages, result.completed, result.failed,
            round(result.total_bytes / (1 << 30), 3),
            round(result.drained_at * 1e3, 3), result.digest[:16],
        )
        tables = [
            summary,
            tenant_table(result.reports, title="Slowest tenants", limit=args.worst),
        ]
        fields = {
            "tenants": config.tenants,
            "messages": result.messages,
            "completed": result.completed,
            "failed": result.failed,
            "drained_s": result.drained_at,
        }
        if result.completed + result.failed < result.messages:
            errors.append("fabric did not drain")
    else:
        if args.preset == "smoke":
            config = smoke_config(seed=args.seed, cc=args.cc)
        else:
            config = FairnessConfig(
                victims=args.victims, duration=args.duration,
                seed=args.seed, cc=args.cc,
            )
        config = dataclasses.replace(
            config,
            enforce_quotas=not args.no_enforce,
            rogue=not args.no_rogue,
        )
        result = fairness_scenario(config, telemetry=telemetry, slo=slo)
        summary = Table(
            title=(
                f"Fabric fairness ({args.preset}): {config.victims} victim(s)"
                f"{' + rogue' if config.rogue else ''}, cc={config.cc}, "
                f"seed={config.seed}, quotas "
                f"{'enforced' if config.enforce_quotas else 'OFF'}"
            ),
            columns=["solo_gbps", "contended_gbps", "retention", "jain", "digest"],
            notes="retention = victim t0's contended / solo goodput",
        )
        summary.add_row(
            round(result.solo_goodput_bps / 1e9, 3),
            round(result.contended_goodput_bps / 1e9, 3),
            round(result.retention, 4),
            round(result.jain, 4),
            result.digest[:16],
        )
        tables = [summary, tenant_table(result.reports)]
        fields = {
            "enforce_quotas": config.enforce_quotas,
            "rogue": config.rogue,
            "solo_goodput_bps": result.solo_goodput_bps,
            "contended_goodput_bps": result.contended_goodput_bps,
            "retention": result.retention,
            "jain": result.jain,
            "tenants": [
                {"tenant": r.name, **{f: getattr(r, f) for f in _TENANT_FIELDS}}
                for r in result.reports
            ],
        }
        floor = args.min_victim_fraction
        if floor is not None and result.retention < floor:
            errors.append(
                f"victim retained {result.retention:.3f} of solo goodput, "
                f"below required {floor:g}"
            )

    print("\n\n".join(table.render() for table in tables))
    if ring is not None:
        from repro.fabric import lineage_tenant_table
        from repro.telemetry.lineage import LineageAnalyzer

        print()
        print(lineage_tenant_table(LineageAnalyzer.from_events(ring.events)).render())
    common = {
        "preset": "chaos" if args.chaos else args.preset,
        "seed": config.seed,
        "cc": config.cc,
        "digest": result.digest,
    }
    if args.chaos:
        common["schedule"] = config.schedule
    if args.json:
        _write_json(args.json, {**common, "slo": _slo_json(result.slo), **fields})
    _export_registry(args, telemetry.metrics, {"command": "fabric", **common})
    if result.slo is not None:
        print()
        print(result.slo.table().render())
        if not result.slo.compliant:
            errors.insert(0, (
                f"{len(result.slo.violations)} tenant-SLI(s) out of "
                f"compliance ({result.slo.burn_windows} burning windows)"
            ))
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


def cmd_experiments(args) -> int:
    from repro.experiments.__main__ import main as experiments_main

    return experiments_main(args.figures)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdr-rdma",
        description="SDR-RDMA reproduction toolkit (SC'25)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="rank reliability schemes")
    _add_link_args(plan)
    plan.add_argument("--samples", type=int, default=4000)
    plan.add_argument("--seed", type=int, default=0)
    plan.set_defaults(fn=cmd_plan)

    model = sub.add_parser("model", help="evaluate completion-time models")
    _add_link_args(model)
    model.add_argument("--samples", type=int, default=4000)
    model.add_argument("--seed", type=int, default=0)
    model.set_defaults(fn=cmd_model)

    campaign = sub.add_parser("campaign", help="synthetic WAN drop campaign")
    campaign.add_argument("--trials", type=int, default=200)
    campaign.add_argument("--seed", type=int, default=0)
    campaign.set_defaults(fn=cmd_campaign)

    report = sub.add_parser(
        "report",
        help="run a simulated WAN transfer and summarize its telemetry",
    )
    _add_link_args(report)
    report.add_argument(
        "--protocol", "--reliability", dest="protocol",
        choices=DEMO_PROTOCOLS, default="sr",
        help="reliability mode driving the transfer",
    )
    report.add_argument("--messages", type=int, default=4)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "--nack", action="store_true", help="enable SR NACK mode"
    )
    _add_cc_args(report)
    report.add_argument(
        "--trace", metavar="PATH",
        help="write a Chrome/Perfetto trace_event JSON file",
    )
    _add_export_args(report)
    # The DES actually executes this transfer, so default to a small
    # fast point rather than the analytic commands' 128 MiB @ 3750 km.
    report.set_defaults(
        fn=cmd_report, size_mib=4.0, drop=1e-2,
        distance_km=1000.0, bandwidth_gbps=100.0,
    )

    chaos = sub.add_parser(
        "chaos",
        help="run a named fault schedule end-to-end and report the fallout",
    )
    _add_link_args(chaos)
    chaos.add_argument(
        "--schedule", default="blackout",
        help="named fault schedule (see --list)",
    )
    chaos.add_argument(
        "--list", action="store_true", help="list named schedules and exit"
    )
    chaos.add_argument(
        "--protocol", "--reliability", dest="protocol",
        choices=DEMO_PROTOCOLS, default="sr",
        help="reliability mode driving the transfer",
    )
    chaos.add_argument("--messages", type=int, default=8)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--nack", action="store_true", help="enable SR NACK mode"
    )
    _add_cc_args(chaos)
    chaos.add_argument(
        "--planes", type=int, default=None, metavar="N",
        help="bond the WAN link into N planes (required for plane-scoped "
             "schedules such as plane-blackout)",
    )
    chaos.add_argument(
        "--spread", choices=("flow", "packet"), default="packet",
        help="plane spraying policy for a bonded link",
    )
    chaos.add_argument(
        "--recover", action="store_true",
        help="arm the recovery plane: circuit-breaker failover (bonded "
             "links) + bitmap-driven resumption; exits non-zero if any "
             "write still fails",
    )
    _add_export_args(chaos)
    chaos.set_defaults(
        fn=cmd_chaos, size_mib=1.0, drop=0.0,
        distance_km=1000.0, bandwidth_gbps=100.0,
    )

    explain = sub.add_parser(
        "explain",
        help="replay a JSONL trace into per-message completion-time blame",
    )
    explain.add_argument("trace", help="JSONL trace file (report/chaos --trace-jsonl)")
    explain.add_argument(
        "--msg", type=int, default=None,
        help="also print the full event timeline of one message seq",
    )
    explain.add_argument(
        "--straggler-k", type=float, default=2.0,
        help="straggler threshold as a multiple of the p50 span",
    )
    explain.add_argument(
        "--worst", type=int, default=5, help="stragglers to list"
    )
    explain.set_defaults(fn=cmd_explain)

    top = sub.add_parser(
        "top",
        help="render ASCII sparklines of a JSONL trace's time series",
    )
    top.add_argument("trace", help="JSONL trace file (report/chaos --trace-jsonl)")
    top.add_argument(
        "--width", type=int, default=48, help="sparkline width in time bins"
    )
    top.add_argument(
        "--limit", type=int, default=24, help="maximum series rows to show"
    )
    top.add_argument(
        "--match", default="",
        help="only show series whose name contains this substring",
    )
    top.add_argument(
        "--no-instants", action="store_true",
        help="hide instant-event rate rows (loss_drop, slo_burn, ...)",
    )
    top.set_defaults(fn=cmd_top)

    fabric = sub.add_parser(
        "fabric",
        help="multi-tenant fairness / scale experiment on repro.fabric",
    )
    fabric.add_argument(
        "--preset", choices=("smoke", "fairness", "scale"), default="smoke",
        help="smoke = tiny CI dumbbell; fairness = full dumbbell; "
             "scale = two-tier open-loop run",
    )
    fabric.add_argument("--seed", type=int, default=0)
    fabric.add_argument(
        "--cc", choices=CC_ALGORITHMS, default="swift",
        help="per-pair congestion-control algorithm",
    )
    fabric.add_argument(
        "--victims", type=int, default=2,
        help="well-behaved tenants (fairness preset)",
    )
    fabric.add_argument(
        "--tenants", type=int, default=1000,
        help="tenant count (scale preset)",
    )
    fabric.add_argument(
        "--duration", type=float, default=0.05,
        help="arrival window in seconds (fairness/scale presets)",
    )
    fabric.add_argument(
        "--offered-gbps", type=float, default=280.0,
        help="aggregate offered load (scale preset)",
    )
    fabric.add_argument(
        "--fast-path", action="store_true",
        help="run the scale preset with the fluid fast path (bulk "
             "segment booking instead of per-packet events; same seed "
             "stays deterministic, digests differ from packet mode)",
    )
    fabric.add_argument(
        "--no-enforce", action="store_true",
        help="disable per-tenant quota enforcement (shows the collapse)",
    )
    fabric.add_argument(
        "--no-rogue", action="store_true",
        help="drop the misbehaving tenant from the contended run",
    )
    fabric.add_argument(
        "--lineage", action="store_true",
        help="trace the run and print per-tenant lineage attribution",
    )
    fabric.add_argument(
        "--worst", type=int, default=10,
        help="tenants to list in the scale report (slowest first)",
    )
    fabric.add_argument(
        "--min-victim-fraction", type=float, default=None, metavar="F",
        help="exit non-zero if the victim retains less than F of its "
             "solo goodput (CI gate)",
    )
    fabric.add_argument(
        "--chaos", default=None, metavar="NAME",
        help="run a fabric chaos survival experiment instead of the "
             "preset: tor_crash, wan_flap or fabric_partition",
    )
    fabric.add_argument(
        "--no-health", action="store_true",
        help="disable the edge-health monitor under --chaos (static "
             "routing: the documented near-total-loss counterfactual)",
    )
    fabric.add_argument(
        "--min-survival", type=float, default=None, metavar="F",
        help="exit non-zero if fewer than F of the chaos run's messages "
             "complete (CI gate; use with --chaos)",
    )
    fabric.add_argument(
        "--json", metavar="PATH", help="dump the result as JSON"
    )
    _add_export_args(
        fabric, "stream the trace as JSONL (view with `repro top PATH`)"
    )
    fabric.add_argument(
        "--slo", action="store_true",
        help="arm the per-tenant SLO plane (windowed sampler + burn-rate "
             "tracker) and exit non-zero if any declared target ends out "
             "of compliance",
    )
    fabric.add_argument(
        "--slo-window", type=float, default=None, metavar="SECONDS",
        help="SLO sampling window width (default: scenario-chosen)",
    )
    fabric.set_defaults(fn=cmd_fabric)

    experiments = sub.add_parser("experiments", help="regenerate paper figures")
    experiments.add_argument("figures", nargs="*", help="e.g. fig09 fig13")
    experiments.set_defaults(fn=cmd_experiments)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Unreadable/unwritable trace paths and the like.
        print(f"error: {exc}", file=sys.stderr)
        return 2
