"""Cross-commit byte-identity: replay pinned same-seed trace digests.

Every other determinism test runs a scenario twice inside one commit and
compares the two runs, which cannot see a change that moves both.  This
one pins, per miniature scenario, the sha256 of the JSONL trace and of the
full registry snapshot (plus the drained clock) in ``trace_digests.json``,
recorded on the commit *before* an engine change and replayed after it.
``lineage_sha256`` pins what ``LineageAnalyzer`` reads from the same trace
(per message: protocol, completion, failure, retransmits, drops and the
blame partition to 1 ns), so a change to the trace consumer shows even
when every trace byte holds.

A host-time optimisation must leave every digest here untouched.  The
file is regenerated (``PYTHONPATH=src python tests/golden/test_trace_digests.py``)
only by a PR that declares a behaviour change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro.cc.incast import run_incast
from repro.collectives.des_ring import run_des_ring_allreduce
from repro.common.config import ChannelConfig, DpaConfig, SdrConfig
from repro.common.units import KiB, MiB, distance_to_rtt
from repro.experiments.testbed import run_rc_throughput, run_sdr_throughput
from repro.fabric import ChaosConfig, ScaleConfig, chaos_scenario, scale_scenario
from repro.faults import FaultSchedule, FaultWindow, named_schedule
from repro.reliability.ec import EcConfig
from repro.reliability.sampling import SamplingConfig
from repro.reliability.sr import SrConfig
from repro.sdr import context_create
from repro.sdr.qp import SdrRecvWr, SdrSendWr
from repro.sdr.staged import StagedSdrQp
from repro.sim.engine import Simulator
from repro.telemetry import JsonlSink, LineageAnalyzer, Telemetry, TimeseriesSampler
from repro.telemetry.demo import run_demo

GOLDEN = Path(__file__).with_name("trace_digests.json")

WAN_KM = 1000.0
WAN_RTT = distance_to_rtt(WAN_KM)


def _demo(telemetry, **kwargs):
    kwargs.setdefault("messages", 3)
    run_demo(
        message_bytes=MiB, distance_km=WAN_KM, seed=7, telemetry=telemetry,
        **kwargs,
    )


def _sr(telemetry):
    _demo(telemetry, protocol="sr", drop=0.02)


def _sr_nack_bare(telemetry):
    # cc=None is the byte-identity reference (no pacer at all); NACKs and
    # 16 KiB chunks put the injection-progress poll on every chunk.
    _demo(
        telemetry, protocol="sr", drop=0.01, cc=None, chunk_bytes=16 * KiB,
        sr_config=SrConfig(nack_enabled=True),
    )


def _ec(telemetry):
    _demo(telemetry, protocol="ec", drop=0.02)


def _ec_timed_salvage(telemetry):
    # Timed encode and decode, and a data blackout that starts after the
    # first message's sub 0 has its parity but before sub 1 has any: the
    # global timeout resumes that message in place, and the EC fallback
    # repeats sub 1's chunks once the link is back.
    blackout = FaultWindow(
        kind="blackout", start=2.0 * WAN_RTT, end=40 * WAN_RTT, selector="data"
    )
    _demo(
        telemetry, protocol="ec", drop=0.02, bandwidth_bps=1e9,
        faults=FaultSchedule((blackout,), name="ec-salvage"),
        ec_config=EcConfig(
            k=8, m=4, encode_bps=8e9, decode_bps=4e9, global_timeout_rtts=20.0,
            max_resumptions=1,
        ),
    )


def _adaptive(telemetry):
    # The loss estimate moves the advisor: SR for the first message, EC
    # for the three after it.
    _demo(telemetry, protocol="adaptive", drop=0.02, messages=4,
          ec_config=EcConfig(k=8, m=4))


def _gbn(telemetry):
    from tests.conftest import make_sdr_pair
    from repro.stack import endpoints

    pair = make_sdr_pair(
        drop=0.02, distance_km=WAN_KM, chunk=64 * KiB, seed=7,
        telemetry=telemetry,
    )
    sender, receiver = endpoints("gbn", pair)
    mr = pair.ctx_b.mr_reg(MiB)
    for _ in range(3):
        receiver.post_receive(mr, MiB)
        pair.sim.run(sender.write(MiB).done)
    pair.sim.run()


def _sampling(telemetry):
    _demo(
        telemetry, protocol="sampling", drop=0.02,
        sampling_config=SamplingConfig(max_resumptions=2),
    )


def _sr_chaos(telemetry):
    _demo(
        telemetry, protocol="sr", drop=0.001,
        faults=named_schedule("chaos-mix", rtt=WAN_RTT),
        sr_config=SrConfig(
            adaptive_rto=True, rto_backoff=True, max_message_retransmits=400,
            serve_deadline_rtts=400.0, max_resumptions=2,
        ),
    )


def _recovery(telemetry):
    _demo(
        telemetry, protocol="sr", drop=0.001, planes=2, recover=True,
        faults=named_schedule("plane-blackout", rtt=WAN_RTT),
    )


def _incast(telemetry):
    run_incast(senders=4, cc="swift", messages_per_sender=6, telemetry=telemetry)


SCALE = ScaleConfig(
    tenants=24, duration=0.003, offered_load_bps=30e9, tors=2,
    hosts_per_tor=2, seed=3,
)


def _fabric_pkt(telemetry):
    scale_scenario(SCALE, telemetry=telemetry)


def _fabric_fluid(telemetry):
    config = dataclasses.replace(
        SCALE, fluid=True, mean_message_bytes=256 * KiB,
        max_message_bytes=2 * MiB,
    )
    scale_scenario(config, telemetry=telemetry)


def _fabric_chaos(telemetry):
    chaos_scenario(
        ChaosConfig(hosts_per_tor=1, schedule="tor_crash"), telemetry=telemetry
    )


def _des_ring(protocol):
    # Three datacenters on one lossy 100 Gb/s, 1000 km cell.
    def run(telemetry):
        channel = ChannelConfig(
            bandwidth_bps=100e9, distance_km=WAN_KM, mtu_bytes=4 * KiB,
            drop_probability=0.01,
        )
        result = run_des_ring_allreduce(
            n_datacenters=3, buffer_bytes=768 * KiB, channel=channel,
            protocol=protocol, seed=7, telemetry=telemetry,
        )
        return result.completion_time

    return run


#: Figure 14's testbed: 400 Gb/s, 100 m, 4 KiB MTU, 64 KiB chunks.
FIG14_CHANNEL = ChannelConfig(bandwidth_bps=400e9, distance_km=0.1, mtu_bytes=4 * KiB)


def _sdr_throughput(telemetry):
    result = run_sdr_throughput(
        message_bytes=256 * KiB, n_messages=24, inflight=16,
        channel=FIG14_CHANNEL,
        sdr=SdrConfig(
            chunk_bytes=64 * KiB, max_message_bytes=256 * KiB, channels=16,
            inflight_messages=16,
        ),
        dpa=DpaConfig(worker_threads=16), telemetry=telemetry,
    )
    return result.elapsed


def _rc_throughput(telemetry):
    # Fig 14's RC baseline on its channel with drops, so the Go-Back-N
    # pump rewinds on NAKs and on its RTO.
    lossy = dataclasses.replace(FIG14_CHANNEL, drop_probability=1e-2)
    result = run_rc_throughput(
        message_bytes=256 * KiB, n_messages=24, channel=lossy, seed=7,
        telemetry=telemetry,
    )
    return result.elapsed


def _staged_sdr(telemetry):
    # The staging ablation's pair with a copy engine slower than the wire.
    from repro.verbs import Fabric

    sim = Simulator(telemetry=telemetry)
    fabric = Fabric(sim, seed=0)
    a, b = fabric.add_device("a"), fabric.add_device("b")
    fabric.connect(a, b, FIG14_CHANNEL)
    cfg = SdrConfig(chunk_bytes=64 * KiB, max_message_bytes=512 * KiB, channels=16)
    ctx_a, ctx_b = context_create(a, sdr_config=cfg), context_create(b, sdr_config=cfg)
    qa = ctx_a.qp_create()
    qb = StagedSdrQp(ctx_b, cfg, copy_bps=100e9)
    ctx_b.qps.append(qb)
    qa.connect(qb.info_get())
    qb.connect(qa.info_get())
    mr = ctx_b.mr_reg(512 * KiB)
    handles = [qb.recv_post(SdrRecvWr(mr=mr, length=512 * KiB)) for _ in range(4)]
    for _ in handles:
        qa.send_post(SdrSendWr(length=512 * KiB))
    for rh in handles:
        sim.run(rh.wait_all_chunks())
        rh.complete()
    return sim.now


#: name -> (runner, arm the windowed sampler).  The sampler is armed on two
#: scenarios because its boundary poll lives inside the dispatch loop.
SCENARIOS = {
    "sr_lossy": (_sr, False),
    "sr_nack_bare_sampled": (_sr_nack_bare, True),
    "ec_lossy": (_ec, False),
    "ec_timed_salvage": (_ec_timed_salvage, False),
    "adaptive_lossy": (_adaptive, False),
    "gbn_lossy": (_gbn, False),
    "sampling_lossy": (_sampling, False),
    "sr_chaos_mix": (_sr_chaos, False),
    "recovery_plane_blackout": (_recovery, False),
    "incast_swift_sampled": (_incast, True),
    "fabric_packet": (_fabric_pkt, False),
    "fabric_fluid": (_fabric_fluid, False),
    "fabric_chaos_tor_crash": (_fabric_chaos, False),
    "des_ring_sr_lossy": (_des_ring("sr"), False),
    "des_ring_ec_lossy": (_des_ring("ec"), False),
    "sdr_throughput_fig14": (_sdr_throughput, False),
    "rc_throughput_lossy": (_rc_throughput, False),
    "staged_sdr": (_staged_sdr, False),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _lineage_sha(trace: str) -> str:
    """sha256 of the per-message blame ``LineageAnalyzer`` reads from a trace."""
    analyzer = LineageAnalyzer.from_events(JsonlSink.read(io.StringIO(trace)))
    rows = [
        [
            m.msg, m.protocol, m.completed is not None, m.failed,
            m.retransmits, m.drops,
            sorted((cat, round(s * 1e9)) for cat, s in m.attribution.items()),
        ]
        for m in sorted(analyzer.messages.values(), key=lambda m: m.msg)
    ]
    return _sha(json.dumps(rows))


def digests(name: str) -> dict:
    runner, sampled = SCENARIOS[name]
    buf = io.StringIO()
    telemetry = Telemetry(
        trace=True, trace_sinks=[JsonlSink(buf)],
        timeseries=TimeseriesSampler(window=2e-4, capacity=64) if sampled else None,
    )
    completion = runner(telemetry)
    trace = buf.getvalue()
    assert trace, f"{name} traced nothing"
    snapshot = telemetry.metrics.snapshot()
    recorded = {
        "trace_sha256": _sha(trace),
        "trace_lines": trace.count("\n"),
        "lineage_sha256": _lineage_sha(trace),
        "registry_sha256": _sha(json.dumps(snapshot, sort_keys=True)),
        "registry_entries": len(snapshot),
        "sim_now": repr(telemetry.trace.now),
    }
    if completion is not None:
        # What the runner reports: a completion time or an elapsed time.
        recorded["completion"] = repr(completion)
    return recorded


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_digests_match_the_recorded_commit(name):
    recorded = json.loads(GOLDEN.read_text())["scenarios"]
    assert digests(name) == recorded[name]


def test_every_scenario_is_recorded():
    recorded = json.loads(GOLDEN.read_text())["scenarios"]
    assert sorted(recorded) == sorted(SCENARIOS)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    payload = {
        "note": (
            "sha256 of the JSONL trace and registry snapshot per scenario; "
            "regenerate only in a PR that declares a behaviour change"
        ),
        "recorded_at": sys.argv[1] if len(sys.argv) > 1 else "unknown",
        "scenarios": {name: digests(name) for name in sorted(SCENARIOS)},
    }
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
