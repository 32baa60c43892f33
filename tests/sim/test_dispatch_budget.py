"""A deterministic floor under host time: heap dispatches per offered packet.

Wall-clock ratio gates flake with the host; dispatch counts repeat exactly
for a seed, so a miniature of each SDR benchmark workload is held to a
ceiling 10 % above the last measurement: 3.73 / 3.29 / 5.68 dispatches per
packet with the per-write waits as callbacks too (EC 3.2863, was 3.2892;
a generator's end event runs no callback, so the rest did not move), and
since the SR timers went callback-only (3.83 / 3.29 / 6.37 with the
callback datapath alone, 8.38 / 5.22 / 7.92 before it).  A change that puts
a generator hop, a parked ``Event`` or a blind poll tick back on the
per-packet path trips it; a change that removes more lowers the ceiling.
"""

from __future__ import annotations

import pytest

from repro.cc.incast import run_incast
from repro.common.units import MiB
from repro.sim.profile import SimProfiler
from repro.telemetry import Telemetry
from repro.telemetry.demo import run_demo


def _wan(protocol):
    def run(telemetry):
        return run_demo(
            protocol=protocol, messages=6, message_bytes=MiB, drop=0.01,
            distance_km=1000.0, seed=11, cc=None, telemetry=telemetry,
        ).sim
    return run


def _incast(telemetry):
    return run_incast(
        senders=8, cc="swift", messages_per_sender=6, telemetry=telemetry
    ).sim


def _packets_offered(metrics) -> int:
    return sum(
        metrics.value(name) for name in metrics.names("net")
        if name.endswith(".packets_offered")
    )


def _dispatches_per_packet(run) -> tuple[int, int]:
    profiler = SimProfiler()
    sim = run(Telemetry(profiler=profiler))
    return profiler.events, _packets_offered(sim.telemetry.metrics)


@pytest.mark.parametrize(
    "run, ceiling",
    [(_wan("sr"), 4.10), (_wan("ec"), 3.61), (_incast, 6.25)],
    ids=["wan_sr", "wan_ec", "incast_swift"],
)
def test_dispatches_per_offered_packet(run, ceiling):
    dispatches, packets = _dispatches_per_packet(run)
    assert (dispatches, packets) == _dispatches_per_packet(run)
    assert packets > 1000
    assert dispatches / packets <= ceiling, (dispatches, packets)
