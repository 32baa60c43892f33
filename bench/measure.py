"""Measure one workload once: metrics, digest, layer budget.

Imported by ``child.py`` (one round per fresh process) and usable in
process by the tests.  Everything is read from outside the simulator:
the public ``SimProfiler`` and ``MetricsRegistry`` and a clock around
public calls.  Host seconds are reported at reference machine speed, see
``yardstick.py``.
"""

from __future__ import annotations

import gc
import hashlib
import json

from repro.sim.profile import SimProfiler
from repro.telemetry import Telemetry

import layers
from workloads import WORKLOADS, CodecClock, Outcome, Round
from yardstick import Yardstick

#: Per-layer counts read from the public ``MetricsRegistry`` after the run:
#: ``name -> (registry prefixes, metric suffix)``, summed over instances.
INSTANCE_COUNTS = {
    "net.packets_offered": (("net",), "packets_offered"),
    "net.packets_dropped": (("net",), "packets_dropped"),
    "net.tail_drops": (("net",), "tail_drops"),
    "net.ecn_marked": (("net",), "ecn_marked"),
    "net.bytes_delivered": (("net",), "bytes_delivered"),
    "verbs.cqes_posted": (("cq",), "cqes_posted"),
    "verbs.cq_overflows": (("cq",), "overflows"),
    "dpa.cqes_processed": (("dpa",), "cqes_processed"),
    "dpa.chunks_closed": (("dpa",), "chunks_closed"),
    "dpa.busy_sim_s": (("dpa",), "busy_seconds"),
    "sdr.messages_sent": (("sdr",), "messages_sent"),
    "sdr.chunks_completed": (("sdr",), "chunks_completed"),
    "sdr.cts_sent": (("sdr",), "cts_sent"),
    "sdr.late_cqes_filtered": (("sdr",), "late_cqes_filtered"),
    "sdr.duplicate_packets": (("sdr",), "duplicate_packets"),
    "reliability.writes_completed": (("sr", "ec"), "writes_completed"),
    "reliability.writes_failed": (("sr", "ec"), "writes_failed"),
    "reliability.rto_fires": (("sr", "ec"), "rto_fires"),
    "reliability.retransmitted_chunks": (("sr", "ec"), "retransmitted_chunks"),
    "reliability.acks_sent": (("sr", "ec"), "acks_sent"),
    "reliability.nacks_sent": (("sr", "ec"), "nacks_sent"),
    "reliability.decoded_chunks": (("sr", "ec"), "decoded_chunks"),
    "reliability.fallback_retransmits": (("sr", "ec"), "fallback_retransmits"),
    "cc.paced_packets": (("cc",), "paced_packets"),
    "cc.pacing_stalls": (("cc",), "pacing_stalls"),
    "cc.stall_sim_s": (("cc",), "stall_seconds"),
    "cc.loss_signals": (("cc",), "loss_signals"),
    "cc.rtt_samples": (("cc",), "rtt_samples"),
}

#: Counts the fabric service keeps once (its per-tenant copies carry the
#: same suffix, so these are read by exact name): ``name -> registry name``.
FABRIC_COUNTS = {
    "fabric.flows_completed": "fabric.flows_completed",
    "fabric.flows_failed": "fabric.flows_failed",
    "fabric.segments_sent": "fabric.segments_sent",
    "fabric.segments_retransmitted": "fabric.segments_retransmitted",
    "fabric.qp_pool_waits": "fabric.qp_pool_waits",
    "fabric.qp_pool_wait_sim_s": "fabric.qp_pool_wait_seconds",
    "fabric.admission_stalls": "fabric.admission_stalls",
    "fabric.admission_stall_sim_s": "fabric.admission_stall_seconds",
}

#: Stage timings every traced round reports (0 where a workload has no
#: such stage), so the rows are the same on every workload.
STAGES = (
    "workloads.generate_s", "fabric.build_s", "fabric.submit_s",
    "sdr.build_s", "sim.run_s", "telemetry.digest_s",
)


def _registry_sum(registry, prefixes: tuple[str, ...], suffix: str):
    dotted = "." + suffix
    return sum(
        registry.value(name)
        for prefix in prefixes
        for name in registry.names(prefix)
        if name.endswith(dotted)
    )


def simulated(out: Outcome, declared_tail: float, *, full_size: bool) -> dict:
    """What the simulation produced: repeats exactly for a seed."""
    spans = sorted(out.spans)
    tail_pct = min(declared_tail, layers.tail_percentile(len(spans)))
    if full_size and tail_pct != declared_tail:
        raise AssertionError(
            f"{len(spans)} samples support p{tail_pct:g} at most, but the "
            f"workload reports p{declared_tail:g}: its size drifted"
        )
    return {
        "sim_goodput_gbps": out.delivered_bytes * 8 / out.last_ack / 1e9,
        "sim_msg_p50_s": layers.percentile(spans, 50.0),
        "sim_msg_tail_s": layers.percentile(spans, tail_pct),
        "delivered_share": (out.attempted - out.failed) / out.attempted,
        "sim_seconds": out.sim.now,
        "tail_pct": tail_pct,
        "samples": len(spans),
    }


def measure(name: str, seed: int, scale: float, *, traced: bool,
            yard: Yardstick, check: bool = False) -> dict:
    """Run one workload once and derive every per-round measurement.

    ``yard`` is armed by the caller; every host interval is read off its
    clock, so slices never count, and scaled by its speed at the end.
    """
    spec = WORKLOADS[name]
    clock = yard.clock
    # A timed round arms nothing: the engine dispatches as it does for a
    # user.  Only the traced round pays for the profiler and wrapper codec.
    profiler = SimProfiler(clock=clock) if traced else None
    codec = CodecClock(clock) if traced else None
    rnd = Round(
        seed=seed, scale=scale, telemetry=Telemetry(profiler=profiler),
        codec=codec.codec if traced else "mds", clock=clock,
    )
    gc.collect()
    start = clock()
    out = spec.run(rnd)
    ran = clock()
    if not out.attempted:
        raise AssertionError(f"{name}: scale {scale} generated no messages")
    if len(out.spans) + out.failed != out.attempted:
        raise AssertionError(
            f"{name}: {len(out.spans)} completed + {out.failed} failed "
            f"!= {out.attempted} attempted"
        )
    sim = simulated(out, spec.tail_pct, full_size=scale == 1.0)
    digest = hashlib.sha256(
        json.dumps(
            {"simulated": sim, "registry": out.sim.telemetry.metrics.snapshot()},
            sort_keys=True,
        ).encode()
    ).hexdigest()
    end = clock()
    rnd.stages["telemetry.digest_s"] = end - ran
    yard.sample()
    speed = yard.speed
    result = {
        "loop": spec.loop,
        "seeded": spec.seeded,
        "wall_s": (end - start) * speed,
        "wall_raw_s": end - start,
        "host_speed": speed,
        "attempted": out.attempted,
        "failed": out.failed,
        "simulated": sim,
        "sim_digest": digest,
    }
    if traced:
        result["per_layer"] = per_layer(
            out, rnd.stages, profiler, codec, end - start, speed
        )
    if check and out.verify is not None:
        out.verify()
    return result


def per_layer(out: Outcome, stages: dict[str, float], profiler: SimProfiler,
              codec: CodecClock, wall_raw: float, speed: float) -> dict:
    """Budget, counts and stage timings of one traced round.

    Host seconds are scaled by the round's machine ``speed`` like the
    end-to-end times, so budgets of different runs compare.
    """
    report = profiler.report(wall_seconds=wall_raw)
    registry = out.sim.telemetry.metrics
    metrics: dict[str, float] = {}
    budget = layers.rollup(report["categories"])
    for layer, row in budget.items():
        metrics[f"{layer}.busy_s"] = row["busy_s"] * speed
        metrics[f"{layer}.dispatches"] = row["dispatches"]
    metrics["ec.codec_s"] = codec.seconds * speed
    metrics["ec.encode_calls"] = codec.encode_calls
    metrics["ec.decode_calls"] = codec.decode_calls

    for stage in STAGES:
        metrics[stage] = stages.get(stage, 0.0) * speed
    busy = sum(metrics[f"{layer}.busy_s"] for layer in budget)
    # Callbacks are dispatched only inside sim.run, so what sim.run_s
    # holds beyond handler time is the engine itself (heap, loop,
    # profiler); the other stages account for the rest of the wall.
    metrics["sim.engine_overhead_s"] = metrics["sim.run_s"] - busy
    metrics["sim.traced_wall_s"] = wall_raw * speed
    metrics["sim.host_speed"] = speed
    metrics["sim.dispatches_total"] = report["events"]
    metrics["sim.us_per_dispatch"] = metrics["sim.run_s"] / report["events"] * 1e6
    metrics["sim.sim_seconds"] = out.sim.now
    metrics["sim.wall_per_sim_s"] = metrics["sim.traced_wall_s"] / out.sim.now
    metrics["sim.events_per_sim_s"] = report["events"] / out.sim.now

    for name, (prefixes, suffix) in INSTANCE_COUNTS.items():
        metrics[name] = _registry_sum(registry, prefixes, suffix)
    for name, registered in FABRIC_COUNTS.items():
        metrics[name] = registry.value(registered)
    offered_bytes = _registry_sum(registry, ("net",), "bytes_offered")
    metrics["net.goodput_ratio"] = out.delivered_bytes / offered_bytes
    # Control traffic on the two-node topologies is everything the
    # receiver sends back: ACK/NACK datagrams and SDR clear-to-send.
    metrics["reliability.ctrl_bytes"] = sum(
        registry.value(n) for n in registry.names("net")
        if n.endswith(".rev.bytes_offered")
    )
    metrics["sim.dispatches_per_packet"] = (
        report["events"] / metrics["net.packets_offered"]
    )
    return metrics
