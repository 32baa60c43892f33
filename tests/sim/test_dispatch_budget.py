"""A deterministic floor under host time: heap dispatches per offered packet.

Wall-clock ratio gates flake with the host; dispatch counts repeat exactly
for a seed, so a miniature of each SDR benchmark workload is held to a
ceiling 10 % above the last measurement: 3.63 / 3.12 / 5.59 dispatches per
packet (SR 6,761 / 1,864, EC 7,357 / 2,358, incast 19,541 / 3,495) since a
closed chunk's PCIe write and its CQE's accounting are one heap entry and
an SR chunk armed at or after the RTO horizon re-arms the clock in place
instead of waking it; 3.73 / 3.16 / 5.68 (6,947 / 7,453 / 19,852) since
the EC receiver wakes only on a chunk that can make its segment recoverable (EC 3.1607, 7,453 / 2,358; 3.2574 while every chunk of
a pending segment woke it), since each EC receive keeps one live chunk
waiter per handle (was 3.2863), with the per-write waits as callbacks too
(EC was 3.2892 before them; a generator's end event runs no callback, so
the rest did not move), and since the SR timers went callback-only (3.83 /
3.29 / 6.37 with the callback datapath alone, 8.38 / 5.22 / 7.92 before
it).  The payload-carrying EC miniature (``wan_ec``'s MDS(32, 8) at 16 KiB
chunks, codec and all) reads 3.373 (8,931 / 2,648), 3.581 (9,483) before
the one-entry chunk close, 4.097 (10,848) while
every chunk of a pending segment woke the receiver, 4.489 (11,887) while
stale chunk waiters piled up.  A change that puts a generator hop, a
parked ``Event``, a blind poll tick, a dead ``Event`` per stale waiter or
a wake per chunk below a segment's bound back on the per-packet path
trips it; a change that removes more lowers the ceiling.  The packet-mode
fabric relay (``fabric_pkt``'s shape, 200 tenants) reads 2.032
dispatches per packet-hop (27,093 / 13,332).

The same profiled runs check the profiler's attribution: the hottest
category holds more than 5 % of handler time, the top twelve name the
layer the run exercises (``repro.fabric`` for the fabric relay), and
handler time never exceeds the wall clock around the run.  Wall-clock
speed itself is ``bench/``'s ``wall_s`` on ``incast_cc`` and
``fabric_pkt``.
"""

from __future__ import annotations

import time

import pytest

from repro.cc.incast import run_incast
from repro.common.config import ChannelConfig, SdrConfig
from repro.common.units import KiB, MiB
from repro.fabric.scenarios import ScaleConfig, scale_scenario
from repro.reliability.ec import EcConfig, EcReceiver
from repro.sim.profile import SimProfiler
from repro.stack import build_pair, endpoints
from repro.telemetry import Telemetry
from repro.telemetry.demo import run_demo

from tests.reliability.conftest import random_payload


def _wan(protocol):
    def run(telemetry):
        return run_demo(
            protocol=protocol, messages=6, message_bytes=MiB, drop=0.01,
            distance_km=1000.0, seed=11, cc=None, telemetry=telemetry,
        ).sim
    return run


def _wan_ec_payload(telemetry):
    """``wan_ec``'s shape with its bytes: MDS(32, 8) over 16 KiB chunks,
    payload-carrying writes, every one compared after it completes (the
    demo above is sized mode with 64 KiB chunks, so it never runs the
    codec nor the 32 + 8-handle waiter fan-out)."""
    st = build_pair(
        ChannelConfig(
            bandwidth_bps=100e9, distance_km=1000.0, mtu_bytes=4 * KiB,
            drop_probability=1e-2,
        ),
        SdrConfig(chunk_bytes=16 * KiB, channels=8, inflight_messages=64),
        seed=11, telemetry=telemetry,
    )
    sender, receiver = endpoints("ec", st, EcConfig(k=32, m=8))
    buf = bytearray(MiB)
    mr = st.ctx_b.mr_reg(MiB, data=buf)
    for i in range(8):
        payload = random_payload(MiB, i)
        rx = receiver.post_receive(mr, MiB)
        st.sim.run(sender.write(MiB, payload).done)
        assert rx.done.ok and buf == payload
    st.sim.run()
    return st.sim


def _incast(telemetry):
    return run_incast(
        senders=8, cc="swift", messages_per_sender=6, telemetry=telemetry
    ).sim


def _fabric_pkt(telemetry):
    """The bench's ``fabric_pkt`` shape (packet mode) over 0.0065 s."""
    scale_scenario(
        ScaleConfig(
            tenants=200, tors=2, hosts_per_tor=2, offered_load_bps=60e9,
            duration=0.0065, seed=0, rate_skew=0.0,
        ),
        telemetry=telemetry,
    )


def _packets_offered(metrics) -> int:
    return sum(
        metrics.value(name) for name in metrics.names("net")
        if name.endswith(".packets_offered")
    )


def _profiled(run) -> tuple[SimProfiler, int, float]:
    """(the profiler, packets offered, wall seconds) of one run."""
    profiler = SimProfiler()
    telemetry = Telemetry(profiler=profiler)
    start = time.perf_counter()
    run(telemetry)
    wall = time.perf_counter() - start
    return profiler, _packets_offered(telemetry.metrics), wall


def _dispatches_per_packet(run) -> tuple[int, int]:
    profiler, packets, _ = _profiled(run)
    return profiler.events, packets


@pytest.mark.parametrize(
    "run, ceiling, layer",
    [(_wan("sr"), 3.99, "repro."), (_wan("ec"), 3.44, "repro."),
     (_wan_ec_payload, 3.72, "repro."), (_incast, 6.16, "repro."),
     (_fabric_pkt, 2.24, "repro.fabric")],
    ids=["wan_sr", "wan_ec", "wan_ec_payload", "incast_swift", "fabric_pkt"],
)
def test_dispatches_per_offered_packet(run, ceiling, layer):
    profiler, packets, wall = _profiled(run)
    dispatches = profiler.events
    assert (dispatches, packets) == _dispatches_per_packet(run)
    assert packets > 1000
    assert dispatches / packets <= ceiling, (dispatches, packets)
    report = profiler.report(wall_seconds=wall)
    assert report["handler_seconds"] <= report["wall_seconds"]
    hot = report["categories"][:12]
    assert hot[0]["share"] > 0.05, hot[0]
    assert any(c["category"].startswith(layer) for c in hot), hot


def test_wan_ec_payload_counts_exactly(monkeypatch):
    """The payload EC miniature's exact counts, and how many times the
    receivers' recoverability wait woke: 58 for 8 writes, where waking on
    every chunk that landed on a segment not yet recoverable took 512."""
    wakes = []
    wake = EcReceiver._await_recoverable
    monkeypatch.setattr(
        EcReceiver, "_await_recoverable",
        lambda self, rx: (wakes.append(rx), wake(self, rx))[1],
    )
    assert _dispatches_per_packet(_wan_ec_payload) == (8_931, 2_648)
    assert len(wakes) == 58
