"""Kernel micro-measurements: the exclusive cost of each layer's hot call.

The layer budget charges a synchronous call into another layer to the
layer that dispatched it; these direct calls give the exclusive cost.
Each value is the median of ``REPEATS`` repeats of at least
``MIN_SECONDS`` each, at reference machine speed (``yardstick.py``).
Runs alone::

    python3 bench/kernels.py            # every kernel, one JSON object
    python3 bench/kernels.py ec. sim.   # only names with these prefixes
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.cc.controller import StaticRateController  # noqa: E402
from repro.cc.pacer import TokenBucketGroup  # noqa: E402
from repro.common import Bitmap, ChannelConfig, KiB, MiB  # noqa: E402
from repro.ec import get_codec  # noqa: E402
from repro.experiments import fig09  # noqa: E402
from repro.fabric import two_tier  # noqa: E402
from repro.models import ModelParams, sr_expected_completion  # noqa: E402
from repro.net.channel import Channel  # noqa: E402
from repro.net.loss import BernoulliLoss  # noqa: E402
from repro.net.packet import Opcode, Packet  # noqa: E402
from repro.reliability.messages import Ack, decode_message  # noqa: E402
from repro.sdr.imm import ImmLayout  # noqa: E402
from repro.sim import Simulator  # noqa: E402
from repro.telemetry import (  # noqa: E402
    LineageAnalyzer,
    MetricsRegistry,
    RingBufferSink,
    Telemetry,
    Tracer,
)

from workloads import Round, wan_sr  # noqa: E402
from yardstick import Yardstick  # noqa: E402

REPEATS = 5
MIN_SECONDS = 0.2


def per_unit(fn, units: int) -> float:
    """Median host seconds per unit of work; ``fn()`` does ``units`` of it."""
    fn()  # warm caches and lazy tables outside the clock
    samples = []
    for _ in range(REPEATS):
        yard = Yardstick()
        yard.sample()
        calls = 0
        start = time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= MIN_SECONDS:
                break
        yard.sample()  # both slices sit outside the clock: nothing to subtract
        samples.append(elapsed / (calls * units) * yard.speed)
    return statistics.median(samples)


# -- sim -----------------------------------------------------------------------

N_EVENTS = 20_000


def sim_timeout_ns() -> float:
    def fn():
        sim = Simulator()
        for i in range(N_EVENTS):
            sim.timeout(i * 1e-6)
        sim.run()

    return per_unit(fn, N_EVENTS) * 1e9


def sim_anyof_ns() -> float:
    """``any_of([wake, timeout])`` where the event wins and the timer is
    left dead in the heap, then popped: the reliability loops' idiom."""

    def fn():
        sim = Simulator()

        def waiter():
            for _ in range(N_EVENTS):
                wake = sim.event()
                wake.succeed()
                yield sim.any_of([wake, sim.timeout(1.0)])

        sim.process(waiter())
        sim.run()

    return per_unit(fn, N_EVENTS) * 1e9


def sim_process_switch_ns() -> float:
    """One generator resumption through a fresh, already triggered event."""

    def fn():
        sim = Simulator()

        def spinner():
            for _ in range(N_EVENTS):
                ev = sim.event()
                ev.succeed()
                yield ev

        sim.process(spinner())
        sim.run()

    return per_unit(fn, N_EVENTS) * 1e9


# -- net -----------------------------------------------------------------------

N_PACKETS = 900  # 3.5 MiB back to back: marks ECN, stays under the buffer


def _transmit_ns(config: ChannelConfig) -> float:
    packets = [
        Packet(dst_qpn=1, opcode=Opcode.WRITE_ONLY, psn=i, length=4 * KiB)
        for i in range(N_PACKETS)
    ]

    def fn():
        sim = Simulator()
        channel = Channel(sim, config, rng=np.random.default_rng(0))
        channel.attach_sink(lambda packet: None)
        for packet in packets:
            channel.transmit(packet)
        sim.run()  # deliveries are part of a packet's cost

    return per_unit(fn, N_PACKETS) * 1e9


def net_transmit_ns() -> float:
    return _transmit_ns(ChannelConfig(bandwidth_bps=100e9, distance_km=1.0))


def net_transmit_ecn_ns() -> float:
    return _transmit_ns(ChannelConfig(
        bandwidth_bps=100e9, distance_km=1.0,
        buffer_bytes=4 * MiB, ecn_threshold_bytes=64 * KiB,
    ))


def net_drop_mask_ns_per_pkt() -> float:
    loss = BernoulliLoss(1e-2)
    rng = np.random.default_rng(0)
    sizes = np.full(4096, 4 * KiB, dtype=np.int64)
    return per_unit(lambda: loss.drop_mask(rng, sizes), len(sizes)) * 1e9


# -- common / sdr / reliability --------------------------------------------------


def common_bitmap_set_ns() -> float:
    bitmap = Bitmap(1 << 16)
    indices = [int(i) for i in np.random.default_rng(0).permutation(1 << 16)[:4096]]

    def fn():
        bitmap.reset()
        for i in indices:
            bitmap.set(i)

    return per_unit(fn, len(indices)) * 1e9


def common_bitmap_missing_us() -> float:
    bitmap = Bitmap.from_indices(1 << 14, range(0, 1 << 14, 3))
    return per_unit(bitmap.missing, 1) * 1e6


def sdr_imm_codec_ns() -> float:
    layout = ImmLayout()

    def fn():
        for pkt in range(2048):
            layout.decode(layout.encode(pkt % 1024, pkt, pkt % 16))

    return per_unit(fn, 2048) * 1e9


def reliability_ack_codec_us() -> float:
    ack = Ack(msg_seq=7, cumulative=100, window_start=104, window=bytes(range(256)) * 2)

    def fn():
        for _ in range(256):
            decode_message(ack.pack())

    return per_unit(fn, 256) * 1e6


# -- ec --------------------------------------------------------------------------

CHUNK = 16 * KiB


def _data(k: int) -> np.ndarray:
    return np.random.default_rng(0).integers(0, 256, size=(k, CHUNK), dtype=np.uint8)


def _encode_mib_s(codec_name: str) -> float:
    codec = get_codec(codec_name, 32, 8)
    data = _data(32)
    return data.nbytes / MiB / per_unit(lambda: codec.encode(data), 1)


def ec_rs_encode_mib_s() -> float:
    return _encode_mib_s("mds")


def ec_xor_encode_mib_s() -> float:
    return _encode_mib_s("xor")


def _decode_mib_s(codec_name: str, k: int, m: int, lost: tuple[int, ...]) -> float:
    codec = get_codec(codec_name, k, m)
    data = _data(k)
    parity = codec.encode(data)
    chunks = {i: data[i] for i in range(k) if i not in lost}
    chunks.update({k + j: parity[j] for j in range(m)})
    decoded = codec.decode(chunks)
    if not np.array_equal(decoded, data):
        raise AssertionError(f"{codec!r} decoded the wrong bytes")
    return data.nbytes / MiB / per_unit(lambda: codec.decode(chunks), 1)


def ec_rs_decode_mib_s() -> float:
    return _decode_mib_s("mds", 32, 8, lost=(1, 9, 17, 25))


def ec_rs2d_decode_mib_s() -> float:
    return _decode_mib_s("rs2d", 16, 8, lost=(0, 5))


# -- cc / fabric -------------------------------------------------------------------


def cc_reserve_batch_ns_per_pkt() -> float:
    group = TokenBucketGroup(Simulator(), StaticRateController(100e9))
    cum_bytes = np.cumsum(np.full(256, 4 * KiB, dtype=np.float64))
    return per_unit(lambda: group.reserve_batch(cum_bytes.copy()), 256) * 1e9


def fabric_shortest_path_us() -> float:
    link = ChannelConfig(bandwidth_bps=25e9, distance_km=0.05)
    wan = ChannelConfig(bandwidth_bps=100e9, distance_km=200.0)
    topo = two_tier(tors=4, hosts_per_tor=4, host_link=link, wan_link=wan)
    return per_unit(lambda: topo.shortest_path("h0-0", "h2-1"), 1) * 1e6


# -- telemetry ---------------------------------------------------------------------


def telemetry_counter_inc_ns() -> float:
    counter = MetricsRegistry().counter("bench.kernel")

    def fn():
        for _ in range(4096):
            counter.inc()

    return per_unit(fn, 4096) * 1e9


def telemetry_trace_instant_ns() -> float:
    tracer = Tracer(enabled=True, sinks=[RingBufferSink(capacity=4096)])
    tracer.bind_clock(lambda: 0.0)

    def fn():
        for i in range(1024):
            tracer.instant("kernel", cat="bench", track="bench", index=i)

    return per_unit(fn, 1024) * 1e9


#: Share of the full ``wan_sr`` size the tracing kernels run (6 messages).
TRACE_SCALE = 0.05


def telemetry_tracing() -> dict[str, float]:
    """``wan_sr`` with a ring-buffer sink armed against the same run with
    tracing off, and the lineage analysis of what the sink caught."""

    def run(telemetry):
        start = time.perf_counter()
        out = wan_sr(Round(seed=0, scale=TRACE_SCALE, telemetry=telemetry))
        return time.perf_counter() - start, out.attempted

    off, on, lineage = [], [], []
    for _ in range(REPEATS):
        off.append(run(Telemetry())[0])
        sink = RingBufferSink(capacity=1 << 22)
        seconds, messages = run(Telemetry(trace=True, trace_sinks=[sink]))
        on.append(seconds)
        if sink.dropped:
            raise AssertionError("trace ring overflowed; lineage would be partial")
        yard = Yardstick()
        yard.sample()
        start = time.perf_counter()
        analyzer = LineageAnalyzer.from_events(sink.events)
        if len(analyzer.completed) != messages:
            raise AssertionError("lineage lost a message")
        seconds = time.perf_counter() - start
        yard.sample()
        lineage.append(seconds * yard.speed / messages)
    return {
        "telemetry.trace_on_ratio": statistics.median(on) / statistics.median(off),
        "telemetry.lineage_us_per_msg": statistics.median(lineage) * 1e6,
    }


# -- models ------------------------------------------------------------------------


def models_sr_completion_us() -> float:
    params = ModelParams(
        bandwidth_bps=400e9, rtt=25e-3, chunk_bytes=64 * KiB,
        drop_probability=1e-4,
    )
    return per_unit(lambda: sr_expected_completion(params, 131_072), 1) * 1e6


def models_fig09_grid_s() -> float:
    return per_unit(fig09.run, 1)


KERNELS = {
    "sim.timeout_ns": sim_timeout_ns,
    "sim.anyof_ns": sim_anyof_ns,
    "sim.process_switch_ns": sim_process_switch_ns,
    "net.transmit_ns": net_transmit_ns,
    "net.transmit_ecn_ns": net_transmit_ecn_ns,
    "net.drop_mask_ns_per_pkt": net_drop_mask_ns_per_pkt,
    "common.bitmap_set_ns": common_bitmap_set_ns,
    "common.bitmap_missing_us": common_bitmap_missing_us,
    "sdr.imm_codec_ns": sdr_imm_codec_ns,
    "reliability.ack_codec_us": reliability_ack_codec_us,
    "ec.rs_encode_mib_s": ec_rs_encode_mib_s,
    "ec.rs_decode_mib_s": ec_rs_decode_mib_s,
    "ec.xor_encode_mib_s": ec_xor_encode_mib_s,
    "ec.rs2d_decode_mib_s": ec_rs2d_decode_mib_s,
    "cc.reserve_batch_ns_per_pkt": cc_reserve_batch_ns_per_pkt,
    "fabric.shortest_path_us": fabric_shortest_path_us,
    "telemetry.counter_inc_ns": telemetry_counter_inc_ns,
    "telemetry.trace_instant_ns": telemetry_trace_instant_ns,
    "models.sr_completion_us": models_sr_completion_us,
    "models.fig09_grid_s": models_fig09_grid_s,
}

#: Kernels that come in a group from one function.
GROUPS = {telemetry_tracing: ("telemetry.trace_on_ratio", "telemetry.lineage_us_per_msg")}


def run(prefixes: tuple[str, ...] = ()) -> dict[str, float]:
    """Every kernel whose name starts with one of ``prefixes`` (all if none)."""

    def wanted(name: str) -> bool:
        return not prefixes or name.startswith(prefixes)

    results = {name: fn() for name, fn in KERNELS.items() if wanted(name)}
    for fn, names in GROUPS.items():
        if any(wanted(name) for name in names):
            results.update(fn())
    return results


if __name__ == "__main__":
    print(json.dumps(run(tuple(sys.argv[1:]))))
