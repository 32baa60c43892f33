"""A second deterministic floor under host time: calls per offered packet.

``test_dispatch_budget.py`` counts heap dispatches; this counts what the
dispatches *do*: every Python-level ``call`` and C-level ``c_call`` event
``sys.setprofile`` reports, per packet offered to the wire, on the same
three miniatures.  With the collector held off the count repeats exactly
for a seed once imports and memoised tables are warm, so each workload is
held to a ceiling 10 % above the measured floor (CPython 3.11, NumPy
2.4): 52.16 / 48.89 / 77.77 calls per packet (97,225 / 1,864,
115,287 / 2,358, 271,799 / 3,495) since a closed chunk's PCIe write and
its CQE's accounting are one heap entry, an SR chunk armed at or after
the RTO horizon re-arms the clock without a wake, and the SDR send CQ
counts an injection by ``wr_id`` (``UcQp._wr_counter``) instead
of queueing a ``Cqe``, and EC's 48.93 (115,379) since the MDS generator's
parity block is normalized when the codec is built (the miniature writes
sized payloads and never decodes, so only those 92 construction calls
show); 56.63 / 52.63 / 79.48 (105,555, 124,101, 277,791)
just before; 58.35 / 54.46 / 80.65 calls per packet (108,773 / 1,864,
128,405 / 2,358, 281,855 / 3,495), EC's since its receiver wakes only on
a chunk that can make its segment recoverable (55.67, 131,263, before),
since the SDR datapath's counters became stores, the send CQ is drained
in place, a CQE is one ``tuple.__new__``, the MTU is fixed at connect
and a grace re-ACK resends its bytes; 86.98 / 85.71 / 91.28 (162,140,
202,096, 319,009 calls) since the clock became an
attribute and the channel's per-packet counters and gauges stores,
99.86 / 98.65 / 104.32 since a quiet poll reuses its ACK, 104.64 / 102.51
/ 122.99 just before, 105.58 / 103.26 / 123.95 when ``call_in`` began to
push its own heap entry.

What moves it: a generated dataclass ``__init__`` + ``__post_init__`` +
``default_factory`` per record where a hand-written constructor is one
call; a masked NumPy reduction per state per timer wake; an ``Event``, a
closure and a generator resume per timer wait; a poll that recomputes an
unchanged answer -- an SR ACK packed, decoded and applied again although
no chunk landed, a ``poll(1)`` list per empty CQ a DPA worker scans, a
NumPy scalar op per bitmap bit or fill counter; bookkeeping through a
call where a store will do -- ``sim.now`` as a property, ``Counter.inc``
/ ``Gauge.set`` per packet instead of ``c.value += n`` / ``g.value = v``;
a CQ ``poll`` list (and its ``len``) per drained CQE where the consumer
pops ``cq.entries``; a namedtuple ``__new__`` frame per CQE where
``tuple.__new__(Cqe, (...))`` builds the same record; a property per
packet for a value fixed at connect (``Channel.config`` for the MTU); a
``min`` / ``max`` builtin per fragment where a comparison will do.
(``object.__setattr__``, the other cost of a frozen dataclass, is a slot
wrapper and raises no ``c_call`` event, so this floor under-counts that
saving.)

The fluid fast path gets its own floor, per ``fabric.segments_sent`` on a
miniature of the ``fabric_fluid`` benchmark workload (167 messages,
11,851 segments): 21.03 calls per segment (249,275) since
``FluidLink._publish`` stores its counters and gauges, 22.61 (267,898)
before, 20.96 (248,453) when the clock became an attribute, 21.64
(256,430) since a Swift
controller at line rate and on target hears a whole booking in one
``on_acks`` call, 35.23 (417,522) while ``_book`` made two or three
controller calls per segment.  A miss means per-segment feedback calls,
or a per-hop list pass, came back into the booking path.

Packet-mode fabric relay gets one too, per packet offered on a miniature
of the ``fabric_pkt`` benchmark workload (200 tenants, 3,333 segments,
13,332 packet-hops): 30.30 calls per packet-hop (403,922) since a
segment's delivery continuation is a ``partial`` and ``Channel.transmit``
pushes its delivery entry itself, 31.77 (423,551) before, 31.46 (419,488)
when bookkeeping became stores and the relay began to walk a precompiled
hop tuple, 49.58 (661,048) before that.  A miss means a per-hop call came
back: a counter ``inc``, a ``(node, nxt)`` channel lookup, a lambda sink
or continuation, a ``call_at`` per delivery, a ``drops`` call on a
lossless edge.  The inline delivery push alone took the SDR miniatures
to 57.56 / 53.56 / 79.91 (from 58.55 / 54.55 / 80.85).
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.common.units import MiB
from repro.fabric.scenarios import ScaleConfig, scale_scenario
from repro.telemetry import Telemetry

from tests.sim.test_dispatch_budget import (
    _fabric_pkt,
    _incast,
    _packets_offered,
    _wan,
)


def _fabric_fluid(telemetry):
    """The bench's ``fabric_fluid`` shape over 0.014 s: 167 messages."""
    scale_scenario(
        ScaleConfig(
            tenants=1000, tors=4, hosts_per_tor=4, offered_load_bps=200e9,
            mean_message_bytes=2 * MiB, max_message_bytes=32 * MiB,
            duration=0.014, seed=0, fluid=True, rate_skew=0.0,
        ),
        telemetry=telemetry,
    )


def _segments_sent(metrics) -> int:
    return metrics.value("fabric.segments_sent")


def _calls_per_unit(run, per) -> tuple[int, int]:
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    # A collection inside the counted region would finalise the previous
    # run's suspended generators (one ``call`` event each) whenever the
    # allocator happened to trigger it.
    gc.collect()
    gc.disable()
    telemetry = Telemetry()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run(telemetry)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls, per(telemetry.metrics)


@pytest.mark.parametrize(
    "run, ceiling",
    [(_wan("sr"), 57.4), (_wan("ec"), 53.8), (_incast, 85.6)],
    ids=["wan_sr", "wan_ec", "incast_swift"],
)
def test_calls_per_offered_packet(run, ceiling):
    run(Telemetry())  # warm-up: lazy imports and memoised tables
    calls, packets = _calls_per_unit(run, _packets_offered)
    assert (calls, packets) == _calls_per_unit(run, _packets_offered)
    assert packets > 1000
    assert calls / packets <= ceiling, (calls, packets)


def test_calls_per_fluid_segment():
    _fabric_fluid(Telemetry())  # warm-up
    calls, segments = _calls_per_unit(_fabric_fluid, _segments_sent)
    assert (calls, segments) == _calls_per_unit(_fabric_fluid, _segments_sent)
    assert segments > 10000
    assert calls / segments <= 23.1, (calls, segments)


def test_calls_per_fabric_packet():
    _fabric_pkt(Telemetry())  # warm-up
    calls, packets = _calls_per_unit(_fabric_pkt, _packets_offered)
    assert (calls, packets) == _calls_per_unit(_fabric_pkt, _packets_offered)
    assert packets > 10000
    assert calls / packets <= 33.4, (calls, packets)
