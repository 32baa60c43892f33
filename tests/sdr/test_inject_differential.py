"""Differential test: the callback SDR injector against the generator one.

``GeneratorQp`` carries ``SdrQp``'s send path as it stood before the
injector went callback-only: one *process* per ``send_post`` (the
``_one_shot`` wrapper ending the handle) and per ``send_stream_continue``,
parked on the handle's clear-to-send and on one ``timeout`` per pacer
stall.  It is kept here as the reference.

Hypothesis draws an MTU, a chunk size, a pacer rate and a handful of
ranges -- one-shot sends and stream continues (retransmissions included),
several posted in the same instant so they stall together, with the
receives posted before or after them -- and both injectors must

* dispatch the same callbacks at the same instants, in the same order
  (the profiler's view, the injector's own entries named alike);
* post the same packets, in the same order, to the same QPs;
* trace the same stalls and spans, count the same metrics and leave the
  drained clock on the same entry.
"""

from __future__ import annotations

import hashlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import Pacer, StaticRateController
from repro.common.units import KiB
from repro.sdr.qp import SdrQp, SdrRecvWr, SdrSendWr
from repro.sim.profile import SimProfiler
from repro.telemetry import JsonlSink, Telemetry
from repro.telemetry.trace import flow_key
from repro.verbs.qp import SendWr

from tests.conftest import make_sdr_pair

UNIT = 1e-6


class GeneratorQp(SdrQp):
    """``SdrQp``'s send path as generator processes, pre-change."""

    def send_post(self, wr):
        hdl = self._new_send_handle(wr)
        npackets = self._npackets(wr.length)
        hdl.packets_posted = npackets
        hdl.bytes_posted = wr.length
        self.sim.process(self._one_shot(hdl, wr))
        return hdl

    def send_stream_continue(self, hdl, offset, length, payload=None, *, attempt=0):
        # Drawn ranges are valid: only the bookkeeping and the launch.
        hdl.packets_posted += self._npackets(length)
        hdl.bytes_posted += length
        user_imm = getattr(hdl, "_stream_user_imm", None)
        self.sim.process(
            self._inject_gen(hdl, offset, length, payload, user_imm, attempt)
        )

    def _one_shot(self, hdl, wr):
        yield from self._inject_gen(hdl, 0, wr.length, wr.payload, wr.user_imm)
        hdl._on_end()

    def _inject_gen(self, hdl, offset, length, payload, user_imm, attempt=0):
        if not hdl.cts_event.triggered:
            yield hdl.cts_event
        assert self._remote is not None
        mtu = self.config.mtu_bytes
        ppc = self.config.packets_per_chunk
        base = hdl.msg_id * self.config.max_message_bytes
        qps = self.data_qps[hdl.generation]
        nch = len(qps)
        rkey = self._remote.root_rkey
        seq = hdl.seq
        sent = 0
        while sent < length:
            byte_off = offset + sent
            flen = min(mtu, length - sent)
            pkt_idx = byte_off // mtu
            chunk = pkt_idx // ppc
            frag = (
                self.layout.user_fragment_of(user_imm, pkt_idx)
                if user_imm is not None
                else 0
            )
            imm = self.layout.encode(hdl.msg_id, pkt_idx, frag)
            frag_payload = None if payload is None else payload[sent : sent + flen]
            flow = None
            if attempt > 0 and (sent == 0 or pkt_idx % ppc == 0):
                flow = flow_key(hdl.seq, chunk, attempt)
            qp = qps[pkt_idx % nch]
            if self.pacer is not None:
                wait = self.pacer.reserve(flen, flow=qp.qpn)
                if wait > 0.0:
                    self.pacer.note_stall(wait)
                    yield self.sim.timeout(wait)
                    if self._trace.enabled:
                        self._trace.instant(
                            "cc_stall", cat="cc", track=self._track,
                            msg=hdl.seq, pkt=pkt_idx, chunk=chunk,
                            attempt=attempt, stall=wait,
                        )
            qp.post_send(
                SendWr(
                    flen, rkey, base + byte_off, frag_payload, imm, seq, True,
                    seq, pkt_idx, chunk, attempt, flow,
                )
            )
            sent += flen


class DispatchLog(SimProfiler):
    """Every dispatched callback as ``(time, what ran)``; the injector's
    own entries (a generator resumption or the callback) read ``inject``."""

    def __init__(self):
        super().__init__()
        self.log: list[tuple[float, str]] = []

    def call(self, cb, *args):
        what = self._key(cb)
        if what.endswith(("._inject_gen", "._one_shot", "SdrQp._inject_range")):
            what = "inject"
        self.log.append((self.sim.now, what))
        cb(*args)


@st.composite
def scenarios(draw):
    mtu = draw(st.sampled_from([1 * KiB, 2 * KiB, 4 * KiB]))
    ppc = draw(st.sampled_from([1, 2, 4]))
    nsends = draw(st.integers(1, 4))
    sends = []
    for _ in range(nsends):
        npackets = draw(st.integers(1, 10))
        if draw(st.booleans()):
            sends.append({"kind": "oneshot", "tick": draw(st.integers(0, 3)),
                          "npackets": npackets, "payload": draw(st.booleans())})
            continue
        # Stream continues: packet ranges of the stream, overlaps allowed
        # (a retransmission re-sends a range with attempt >= 1).
        ranges = draw(st.lists(
            st.tuples(
                st.integers(0, npackets - 1), st.integers(1, npackets),
                st.integers(0, 2), st.integers(0, 3),
            ),
            min_size=1, max_size=4,
        ))
        sends.append({"kind": "stream", "npackets": npackets, "ranges": [
            (start, min(n, npackets - start), attempt, tick)
            for start, n, attempt, tick in ranges
        ]})
    return {
        "mtu": mtu,
        "chunk": mtu * ppc,
        "rate_bps": draw(st.sampled_from([None, 0.2e9, 1e9, 8e9, 200e9])),
        "burst": draw(st.sampled_from([1, 4, 16])),
        "recv_tick": draw(st.sampled_from([0, 2, 6])),
        "sends": sends,
    }


def drive(qp_cls, scenario):
    buf = io.StringIO()
    dispatches = DispatchLog()
    telemetry = Telemetry(trace=True, trace_sinks=[JsonlSink(buf)], profiler=dispatches)
    mtu = scenario["mtu"]
    pair = make_sdr_pair(
        mtu=mtu, chunk=scenario["chunk"], distance_km=10.0, telemetry=telemetry,
    )
    sim, qp_a = pair.sim, pair.qp_a
    qp_a.__class__ = qp_cls
    if scenario["rate_bps"] is not None:
        qp_a.attach_pacer(Pacer(
            sim, StaticRateController(scenario["rate_bps"]), name="t",
            burst_bytes=scenario["burst"] * mtu,
        ))
    posts = []
    for gen in qp_a.data_qps:
        for qp in gen:
            def record(wr, _post=qp.post_send, _qpn=qp.qpn):
                digest = None
                if wr.payload is not None:
                    digest = hashlib.sha256(bytes(wr.payload)).hexdigest()[:12]
                posts.append((sim.now, _qpn, wr.msg_seq, wr.pkt_idx, wr.chunk,
                              wr.attempt, wr.flow_id, wr.length, wr.immediate,
                              digest))
                _post(wr)
            qp.post_send = record

    def post_receives():
        # Sends match receives in handle order, not scenario order: every
        # receive fits the largest send.
        length = max(send["npackets"] for send in scenario["sends"]) * mtu
        for _ in scenario["sends"]:
            pair.qp_b.recv_post(SdrRecvWr(mr=pair.ctx_b.mr_reg(length), length=length))

    sim.call_at(scenario["recv_tick"] * UNIT, post_receives)
    handles = []
    for i, send in enumerate(scenario["sends"]):
        length = send["npackets"] * mtu
        if send["kind"] == "oneshot":
            payload = bytes((i + j) % 251 for j in range(length)) if send["payload"] else None

            def one_shot(length=length, payload=payload):
                handles.append(qp_a.send_post(SdrSendWr(length=length, payload=payload)))

            sim.call_at(send["tick"] * UNIT, one_shot)
            continue
        hdl = qp_a.send_stream_start(SdrSendWr(length=length))
        handles.append(hdl)
        for start, n, attempt, tick in send["ranges"]:
            sim.call_at(
                tick * UNIT,
                lambda h=hdl, s=start, n=n, a=attempt: qp_a.send_stream_continue(
                    h, s * mtu, n * mtu, attempt=a
                ),
            )
        sim.call_at(5 * UNIT, qp_a.send_stream_end, hdl)
    sim.run()
    return {
        "dispatches": dispatches.log,
        "posts": posts,
        "trace": buf.getvalue(),
        "metrics": json.dumps(telemetry.metrics.snapshot(), sort_keys=True),
        "handles": [(h.seq, h.ended, h.packets_injected, h.packets_posted)
                    for h in handles],
        "clock": sim.now,
    }


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_callback_injector_matches_generator_injector(scenario):
    assert drive(SdrQp, scenario) == drive(GeneratorQp, scenario)


def test_ranges_stalling_together_interleave_across_stalls():
    """Three ranges posted in one instant at a pacer rate far under the
    line: they stall together and resume one packet at a time each, so
    their packets interleave on the wire -- the order a per-QP range queue
    would lose."""
    scenario = {
        "mtu": 4 * KiB, "chunk": 8 * KiB, "rate_bps": 1e9, "burst": 1,
        "recv_tick": 0,
        "sends": [
            {"kind": "oneshot", "tick": 1, "npackets": 4, "payload": True},
            {"kind": "stream", "npackets": 4, "ranges": [(0, 4, 0, 1)]},
            {"kind": "oneshot", "tick": 1, "npackets": 3, "payload": False},
        ],
    }
    got = drive(SdrQp, scenario)
    assert got == drive(GeneratorQp, scenario)
    order = [post[2] for post in got["posts"]]
    assert sorted(set(order)) == [0, 1, 2] and len(order) == 11
    # Interleaved, not one message after another.
    assert order != sorted(order)
    stalls = [json.loads(line) for line in got["trace"].splitlines()
              if '"cc_stall"' in line]
    assert {s["args"]["msg"] for s in stalls} == {0, 1, 2}
    assert all(h[1] and h[2] == h[3] for h in got["handles"])
