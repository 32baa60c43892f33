"""Differential tests: the callback serve loops against the generators.

The substrate's ``_watch`` / ``_finish`` first, then ``EcReceiver``'s
serve (at the end of this file).

``GeneratorReceiver`` carries the receiver substrate's serve loop as it
stood before the timers went callback-only: ``_serve`` a *process*,
``_watch`` parked on ``any_of([timeout(interval), wait_all_chunks()])``
per poll, ``_finish`` on one ``timeout`` per grace re-signal.  It is kept
here as the reference.  Hypothesis draws a schedule -- chunks published
to the handle one by one, some never; an abandonment; a serve deadline; a
resume request answered in place, which restarts that deadline -- and
both receivers must poll at the same instants seeing the same bitmap,
finish or give up at the same instant, re-signal through the same grace
window and leave the drained clock on the same (possibly dead) entry.

Ties are kept out by construction, because that is the one place the two
differ by design (``docs/simulation.md``): the last chunk's event polls in
its own dispatch, the generator one same-instant hop later.  Schedule
steps sit on whole ticks and the poll interval is a fractional number of
ticks, so no poll shares an instant with a step.
"""

from __future__ import annotations

import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DeliveryError
from repro.common.units import KiB
from repro.reliability.base import Receiver, ReceiveTicket
from repro.reliability.ec import FALLBACK_INTERVAL_RTTS, EcConfig, EcReceiver, _EcReceive
from repro.reliability.messages import ResumeReq
from repro.reliability.sr import SrConfig
from repro.sdr.qp import SdrRecvWr
from repro.telemetry import JsonlSink, Telemetry

from tests.conftest import make_sdr_pair

UNIT = 1e-6
CHUNK = 8 * KiB
RTT = 10 * UNIT
INTERVAL = 7.318 * UNIT  # k * 7.318 is whole for no k a schedule reaches
LAST_TICK = 400


class RecordingReceiver(Receiver):
    """A scheme on the public hooks that records what they do and when."""

    scheme = "watch-test"
    config_type = SrConfig

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.log: list[tuple] = []

    def _note(self, what, rh):
        self.log.append((self.sim.now, what, rh.bitmap().count(), rh.completed))

    def _serve(self, ticket, rh):
        def finish():
            self._note("full", rh)
            self._finish(ticket, [rh], lambda: self._note("resignal", rh), 2 * RTT)

        self._watch(ticket, rh, INTERVAL, lambda: self._note("poll", rh), finish)


class GeneratorReceiver(RecordingReceiver):
    """``Receiver``'s serve loop as generator processes, pre-change."""

    def post_receive(self, mr, length, mr_offset=0):
        rh = self.qp.recv_post(SdrRecvWr(mr=mr, length=length, mr_offset=mr_offset))
        ticket = ReceiveTicket(
            seq=rh.seq, length=length, done=self.sim.event(), recv_handles=[rh]
        )
        self._file(ticket, rh)
        self.sim.process(self._serve(ticket, rh))
        return ticket

    def _serve(self, ticket, rh):
        poll = lambda: self._note("poll", rh)  # noqa: E731
        if not (yield from self._watch(ticket, rh, INTERVAL, poll)):
            return
        self._note("full", rh)
        yield from self._finish(
            ticket, [rh], lambda: self._note("resignal", rh), 2 * RTT
        )

    def _watch(self, ticket, rh, interval, on_poll):
        rtts = self.config.serve_deadline_rtts
        deadline = None if rtts is None else self.sim.now + rtts * self.rtt
        answered = ticket.resumptions
        while not rh.all_chunks_received():
            if rh.completed:
                return False
            if deadline is not None and answered != ticket.resumptions:
                answered = ticket.resumptions
                deadline = self.sim.now + rtts * self.rtt
            if deadline is not None and self.sim.now >= deadline:
                self._give_up(ticket, rh.bitmap().as_array())
                return False
            yield self.sim.any_of(
                [self.sim.timeout(interval), rh.wait_all_chunks()]
            )
            if rh.completed and not rh.all_chunks_received():
                return False
            on_poll()
        return True

    def _finish(self, ticket, handles, resignal, every):
        for rh in handles:
            rh.complete()
        ticket._finish(self.sim.now)
        grace_end = self.sim.now + self.config.grace_rtts * self.rtt
        while self.sim.now < grace_end:
            yield self.sim.timeout(every)
            resignal()


@st.composite
def schedules(draw):
    nchunks = draw(st.integers(1, 12))
    arriving = draw(st.lists(st.integers(0, nchunks - 1), unique=True, max_size=nchunks))
    ticks = draw(
        st.lists(
            st.integers(1, 120), unique=True,
            min_size=len(arriving), max_size=len(arriving),
        )
    )
    return {
        "nchunks": nchunks,
        "publish": sorted(zip(ticks, arriving)),
        # A resume request answered in place (whole ticks, off the poll grid).
        "answer": draw(st.none() | st.integers(1, 120)),
        "abandon": draw(st.none() | st.integers(0, 130)),
        "deadline_rtts": draw(st.none() | st.sampled_from([0.5, 3.0, 9.0, 40.0])),
        "grace_rtts": draw(st.sampled_from([0.0, 1.0, 5.0])),
    }


def drive(receiver_cls, sched):
    pair = make_sdr_pair(chunk=CHUNK)
    config = SrConfig(
        serve_deadline_rtts=sched["deadline_rtts"], grace_rtts=sched["grace_rtts"]
    )
    receiver = receiver_cls(pair.qp_b, pair.ctrl_b, config, rtt=RTT)
    sim = pair.sim
    length = sched["nchunks"] * CHUNK
    mr = pair.ctx_b.mr_reg(length)
    ticket = receiver.post_receive(mr, length)
    (rh,) = ticket.recv_handles
    if sched["answer"] is not None:
        resume = ResumeReq(msg_seq=ticket.seq, attempt=1)
        sim.call_at(sched["answer"] * UNIT, receiver._on_ctrl, resume)
    outcome = []
    ticket.done.callbacks.append(
        lambda ev: outcome.append(
            (sim.now, "failed", ev._error.delivered_chunks)
            if isinstance(ev._error, DeliveryError) else (sim.now, "done")
        )
    )
    for tick, chunk in sched["publish"]:
        sim.call_at(tick * UNIT, rh._publish_chunk, chunk)

    def abandon():
        if not rh.completed:
            pair.qp_b.recv_abandon(rh)

    # Half a tick off the grid the chunks arrive on.  A watch that nothing
    # else ends polls forever, so every schedule abandons in the end.
    for tick in {sched["abandon"], LAST_TICK} - {None}:
        sim.call_at((tick + 0.5) * UNIT, abandon)
    sim.run()
    return {"log": receiver.log, "outcome": outcome, "clock": sim.now,
            "completed": rh.completed}


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_callback_watch_matches_generator_watch(sched):
    assert drive(RecordingReceiver, sched) == drive(GeneratorReceiver, sched)


def _fixed(**kw):
    sched = {
        "nchunks": 4, "publish": [(5, 0), (20, 1), (21, 2), (50, 3)],
        "answer": None, "abandon": None, "deadline_rtts": None,
        "grace_rtts": 5.0,
    }
    sched.update(kw)
    return sched


def test_full_message_polls_then_finishes_then_resignals():
    got = drive(RecordingReceiver, _fixed())
    assert got == drive(GeneratorReceiver, _fixed())
    kinds = [entry[1] for entry in got["log"]]
    # Six interval polls, then the last chunk's own poll at tick 50.
    assert kinds[:8] == ["poll"] * 7 + ["full"]
    assert got["log"][6][0] == 50 * UNIT and got["log"][6][2] == 4
    assert kinds[8:] == ["resignal"] * 3  # 5 RTT of grace, every 2 RTT
    assert got["outcome"] == [(50 * UNIT, "done")]
    # The poll timer armed at tick ~43.9 was cancelled at 50: its dead entry
    # is not what the clock ends on here (grace runs past it), but the run
    # still drains.
    assert got["completed"]


def test_abandoned_slot_stops_polling_without_finishing():
    got = drive(RecordingReceiver, _fixed(abandon=30))
    assert got == drive(GeneratorReceiver, _fixed(abandon=30))
    assert [e[1] for e in got["log"]] == ["poll"] * 4
    assert got["outcome"] == [] and got["completed"]


def test_serve_deadline_gives_up_with_the_partial_bitmap():
    got = drive(RecordingReceiver, _fixed(deadline_rtts=3.0))
    assert got == drive(GeneratorReceiver, _fixed(deadline_rtts=3.0))
    (failed,) = got["outcome"]
    assert failed[1:] == ("failed", 3) and failed[0] > 30 * UNIT


def test_an_answered_resume_restarts_the_serve_deadline():
    """Answered at tick 25, the 3-RTT deadline starts over at the next
    poll, so the last chunk (tick 50) lands in time."""
    sched = _fixed(deadline_rtts=3.0, answer=25)
    got = drive(RecordingReceiver, sched)
    assert got == drive(GeneratorReceiver, sched)
    assert got["outcome"] == [(50 * UNIT, "done")]


def test_cancelled_poll_timer_still_sets_the_drained_clock():
    sched = _fixed(publish=[(1, 0), (2, 1), (3, 2), (4, 3)], grace_rtts=0.0)
    got = drive(RecordingReceiver, sched)
    assert got == drive(GeneratorReceiver, sched)
    assert [e[1] for e in got["log"]] == ["poll", "full"]
    # Nothing live is left after tick 4, yet the run ends where the dead
    # poll entry armed at post time sat (CTS refreshes aside).
    assert got["clock"] >= INTERVAL


# -- EcReceiver: first-chunk guard, FTO, fallback NACK rounds, decode -----------------


class GeneratorEcReceiver(EcReceiver):
    """``EcReceiver``'s serve as generator processes, pre-change: one
    process per posted message parked on ``any_of`` gates (the first chunk
    behind a gate of its own), ``timeout`` NACK rounds and decode times.
    An answered resume request moves ``rx.fto_deadline`` (the inherited
    ``_answer_serving``), which the loop reads at every wake."""

    def post_receive(self, mr, length, mr_offset=0):
        layout = self.code.layout(length)
        nsub = layout.nsegments
        parity_bytes = layout.m * layout.chunk_bytes
        data = [
            self.qp.recv_post(SdrRecvWr(
                mr=mr, length=layout.segment_bytes(i),
                mr_offset=mr_offset + layout.segment_offset(i),
            ))
            for i in range(nsub)
        ]
        parity = [
            self.qp.recv_post(SdrRecvWr(
                mr=self.qp.ctx.mr_reg(parity_bytes, name=f"parity.{i}"),
                length=parity_bytes,
            ))
            for i in range(nsub)
        ]
        ticket = ReceiveTicket(
            seq=data[0].seq, length=length, done=self.sim.event(),
            recv_handles=data + parity,
        )
        rx = _EcReceive(
            ticket, layout, mr, mr_offset, data, parity, [h.mr for h in parity]
        )
        self._file(ticket, rx)
        self.sim.process(self._serve_gen(rx))
        return ticket

    def _serve_gen(self, rx):
        ticket, layout, sim = rx.ticket, rx.layout, self.sim
        first_chunk = sim.any_of([h.wait_chunk() for h in rx.handles])
        guard = self._fto(layout) + 2 * self.rtt
        yield sim.any_of([first_chunk, sim.timeout(guard)])
        if ticket.seq not in self._serving:
            return
        if rx.fto_deadline is None:
            rx.fto_deadline = sim.now + self._fto(layout)
        rtts = self.config.serve_deadline_rtts
        while True:
            if ticket.seq not in self._serving:
                return
            pending = [
                s for s in range(layout.nsegments) if not self._recoverable(rx, s)
            ]
            if not pending:
                break
            fto_deadline = rx.fto_deadline
            if rtts is not None and sim.now >= fto_deadline + rtts * self.rtt:
                self._give_up(ticket, np.concatenate(
                    [rx.data_present(s) for s in range(layout.nsegments)]
                ))
                return
            if sim.now >= fto_deadline:
                ticket.fell_back_to_sr = True
                self._send_nack(rx, pending)
                yield sim.timeout(FALLBACK_INTERVAL_RTTS * self.rtt)
                continue
            waits = [rx.data[s].wait_chunk() for s in pending] + [
                rx.parity[s].wait_chunk() for s in pending
            ]
            yield sim.any_of(waits + [sim.timeout(fto_deadline - sim.now)])
        for s in range(layout.nsegments):
            yield from self._decode_gen(rx, s)
        for h in rx.handles:
            if not h.completed:
                h.complete()
        self._send_ack(ticket.seq)
        self._finish(ticket, (), lambda: self._send_ack(ticket.seq), 2 * self.rtt)

    def _decode_gen(self, rx, s):
        # Sized buffers: the decode is its counters, its time and its span.
        data_present = rx.data_present(s)
        if data_present.all():
            return
        self._m_submessages_decoded.inc()
        missing = int((~data_present).sum())
        rx.ticket.decoded_chunks += missing
        self._m_decoded_chunks.inc(missing)
        start = self.sim.now
        if self.config.decode_bps is not None:
            yield self.sim.timeout(
                rx.layout.segment_bytes(s) * 8.0 / self.config.decode_bps
            )
        if self._trace.enabled:
            self._trace.complete(
                "decode", cat="ec", track=self._track, start=start,
                msg=rx.ticket.seq, sub=s, missing_chunks=missing,
            )


EC_K, EC_M = 4, 2


@st.composite
def ec_schedules(draw):
    """Chunk arrivals per submessage (data and parity), the FTO slack, a
    decode rate, a serve deadline, a resume request answered in place and
    the codec (XOR can leave a segment short at its bound).

    Ties are drawn on purpose: every arrival comes through 0-3 zero-delay
    hops of its own, so it lands before, between or after the serve's
    same-instant hops -- the callback serve keeps each one.
    """
    nchunks = draw(st.integers(1, 3 * EC_K))
    nsub = -(-nchunks // EC_K)
    arrivals = []
    for s in range(nsub):
        real = min(EC_K, nchunks - s * EC_K)
        for kind, count in (("data", real), ("parity", EC_M)):
            for j in draw(st.lists(st.integers(0, count - 1), unique=True)):
                tick, hops = draw(st.integers(1, 90)), draw(st.integers(0, 3))
                arrivals.append((tick, hops, kind, s, j))
    return {
        "nchunks": nchunks,
        "arrivals": sorted(arrivals),
        "beta_rtts": draw(st.sampled_from([0.5, 1.0, 3.0])),
        "decode_bps": draw(st.sampled_from([None, 1e10, 1e11])),
        "deadline_rtts": draw(st.none() | st.sampled_from([1.0, 4.0])),
        "resume": draw(st.none() | st.tuples(st.integers(1, 120), st.integers(0, 3))),
        "codec": draw(st.sampled_from(["mds", "xor"])),
    }


def drive_ec(receiver_cls, sched):
    buf = io.StringIO()
    telemetry = Telemetry(trace=True, trace_sinks=[JsonlSink(buf)])
    pair = make_sdr_pair(chunk=CHUNK, telemetry=telemetry)
    config = EcConfig(
        codec=sched["codec"], k=EC_K, m=EC_M, beta_rtts=sched["beta_rtts"],
        decode_bps=sched["decode_bps"],
        serve_deadline_rtts=sched["deadline_rtts"], grace_rtts=3.0,
        max_resumptions=1,
    )
    receiver = receiver_cls(pair.qp_b, pair.ctrl_b, config, rtt=RTT)
    sim = pair.sim
    sent, checks = [], []
    send = receiver.ctrl.send
    receiver.ctrl.send = lambda msg: (sent.append((sim.now, repr(msg))), send(msg))[1]
    recoverable = receiver._recoverable

    def check(rx, s):
        # Every look at the bitmaps, with what it saw: where a wake lands
        # relative to a same-instant arrival shows here.
        checks.append((sim.now, s, rx.data[s].bitmap().count(),
                       rx.parity[s].bitmap().count()))
        return recoverable(rx, s)

    receiver._recoverable = check
    length = sched["nchunks"] * CHUNK
    ticket = receiver.post_receive(pair.ctx_b.mr_reg(length), length)
    nsub = -(-sched["nchunks"] // EC_K)
    outcome = []
    ticket.done.callbacks.append(
        lambda ev: outcome.append(
            (sim.now, "failed", ev._error.delivered_chunks)
            if isinstance(ev._error, DeliveryError) else (sim.now, "done")
        )
    )

    def hop(hops, fn, *args):
        if hops:
            sim.call_in(0.0, hop, hops - 1, fn, *args)
        else:
            fn(*args)

    for tick, hops, kind, s, j in sched["arrivals"]:
        handle = ticket.recv_handles[s if kind == "data" else nsub + s]
        sim.call_at(tick * UNIT, hop, hops, handle._publish_chunk, j)
    if sched["resume"] is not None:
        tick, hops = sched["resume"]
        resume = ResumeReq(msg_seq=ticket.seq, attempt=1)
        sim.call_at(tick * UNIT, hop, hops, receiver._on_ctrl, resume)
    sim.run(until=LAST_TICK * UNIT)
    return {
        "sent": sent, "checks": checks, "outcome": outcome,
        "decoded": ticket.decoded_chunks,
        "fell_back": ticket.fell_back_to_sr, "trace": buf.getvalue(),
        "metrics": json.dumps(telemetry.metrics.snapshot(), sort_keys=True),
    }


def ec_serves_agree(sched):
    """Drive both EC serves over ``sched``; return the callback one's run.

    Everything either serve sends, traces, counts and completes must be
    equal.  Its looks at the bitmaps (``checks``) need only be an ordered
    subsequence of the generator's: it wakes only where a segment can turn
    recoverable, the generator on every chunk of a pending one.
    """
    got, want = drive_ec(EcReceiver, sched), drive_ec(GeneratorEcReceiver, sched)
    looks, reference = got.pop("checks"), want.pop("checks")
    assert got == want
    remaining = iter(reference)
    assert all(look in remaining for look in looks), (looks, reference)
    return {**got, "checks": looks}


@settings(max_examples=150, deadline=None)
@given(ec_schedules())
def test_callback_ec_serve_matches_generator_ec_serve(sched):
    ec_serves_agree(sched)


def _ec_fixed(**kw):
    # Two submessages: sub 0 decodes from parity, sub 1 loses two data
    # chunks and both parity chunks, so it needs the SR fallback.
    sched = {
        "nchunks": 8,
        "arrivals": [(2, 0, "data", 0, 0), (2, 1, "data", 0, 1),
                     (3, 0, "data", 0, 3), (3, 2, "parity", 0, 0),
                     (4, 0, "data", 1, 0), (4, 0, "data", 1, 2)],
        "beta_rtts": 1.0, "decode_bps": 1e10, "deadline_rtts": None,
        "resume": None, "codec": "mds",
    }
    sched.update(kw)
    return sched


def test_ec_fto_falls_back_to_nack_rounds_then_decodes():
    late = [(70, 0, "data", 1, 1), (70, 0, "data", 1, 3)]
    got = ec_serves_agree(_ec_fixed(arrivals=_ec_fixed()["arrivals"] + late))
    kinds = [msg.split("(")[0] for _, msg in got["sent"]]
    assert kinds[0] == "EcNack" and "EcAck" in kinds
    assert got["fell_back"] and got["decoded"] == 1  # sub 0's missing chunk
    (done,) = got["outcome"]
    assert done[1] == "done" and done[0] > 70 * UNIT


def test_ec_resumption_is_answered_in_place():
    """A resume request at tick 20, just after the first NACK round: the
    answer is an EC NACK naming sub 1 (sub 0 decodes from parity), and it
    restarts the 1-RTT serve deadline, which gives up a round later."""
    alone = ec_serves_agree(_ec_fixed(deadline_rtts=1.0))
    got = ec_serves_agree(_ec_fixed(deadline_rtts=1.0, resume=(20, 0)))
    answer = [msg for t, msg in got["sent"] if t == 20 * UNIT]
    assert answer == ["EcNack(msg_seq=0, failed_submessages=(1,), missing_chunks=(5, 7))"]
    (gave_up,), (gave_up_later,) = alone["outcome"], got["outcome"]
    assert gave_up_later[1:] == gave_up[1:] == ("failed", 5)
    assert gave_up_later[0] == gave_up[0] + RTT


def test_ec_resume_while_decoding_is_answered_with_an_ack():
    """Sub 0 turns recoverable at tick 3 and decodes for 26 ticks: a
    resume request at tick 10 finds nothing pending and gets an ``EcAck``
    before the completion's own."""
    got = ec_serves_agree(_ec_fixed(nchunks=4, resume=(10, 0), arrivals=[
        (2, 0, "data", 0, 0), (2, 0, "data", 0, 1), (2, 0, "data", 0, 2),
        (3, 0, "parity", 0, 0),
    ]))
    assert got["sent"][0] == (10 * UNIT, "EcAck(msg_seq=0)")
    (done,) = got["outcome"]
    assert done[1] == "done" and done[0] > 29 * UNIT


def test_ec_wake_sees_an_arrival_one_hop_behind_it():
    """A chunk wakes the recoverability wait and another lands one hop later
    in the same instant: the wake looks after the gate's hop, as the
    generator did, so it sees both."""
    got = ec_serves_agree(_ec_fixed(nchunks=4, decode_bps=None, arrivals=[
        (1, 0, "data", 0, 0), (5, 0, "data", 0, 1), (5, 1, "data", 0, 2),
    ]))
    assert [c[2] for c in got["checks"] if c[0] == 5 * UNIT] == [3]


def test_ec_stale_waiter_of_a_recoverable_segment_stays_dead():
    """Sub 0 (one real chunk) turns recoverable on its parity; the wakes
    after it must not count sub 0's chunks again, nor reuse one timer for
    every wake, or a chunk of the recoverable segment wakes the receiver
    where the generator slept."""
    ec_serves_agree(_ec_fixed(nchunks=5, beta_rtts=0.5, arrivals=[
        (1, 0, "parity", 0, 0), (2, 0, "data", 1, 0), (2, 1, "parity", 1, 0),
    ]))


def test_ec_wakes_only_where_a_segment_can_decode():
    """From D/2 on (D the FTO deadline) a pending segment sleeps through
    the chunks below its bound: after the first chunk's wake the callback
    serve looks once more, at the fourth data chunk, where the generator
    looked at each of the three."""
    got = ec_serves_agree(_ec_fixed(nchunks=4, decode_bps=None, arrivals=[
        (30, 0, "data", 0, 0), (31, 0, "data", 0, 1), (32, 0, "data", 0, 2),
        (33, 0, "data", 0, 3),
    ]))
    assert got["checks"] == [(30 * UNIT, 0, 1, 0), (33 * UNIT, 0, 4, 0)]
    assert got["outcome"] == [(33 * UNIT, "done")]


def test_ec_segment_short_at_its_bound_wakes_on_each_chunk():
    """XOR repairs one loss per modulo group ({0, 2} and {1, 3} here), so
    the fourth chunk can leave group 0 two short: from the bound on, each
    chunk wakes the serve, and the fifth decodes."""
    got = ec_serves_agree(_ec_fixed(
        codec="xor", nchunks=4, decode_bps=None, arrivals=[
            (30, 0, "data", 0, 1), (31, 0, "data", 0, 3),
            (32, 0, "parity", 0, 1), (33, 0, "parity", 0, 0),
            (34, 0, "data", 0, 0),
        ],
    ))
    assert [look[0] for look in got["checks"]] == [30 * UNIT, 33 * UNIT, 34 * UNIT]
    assert got["outcome"] == [(34 * UNIT, "done")]


def test_ec_fto_expires_where_the_generator_last_rearmed_it():
    """The second chunk (tick 18) is before D/2, and its wake re-arms the
    FTO an ulp past the D the first chunk's wake armed: 17 + (D - 17) is D,
    18 + (D - 18) is not.  The first NACK goes out there, as the
    generator's did, not at D, where a serve that slept through the second
    chunk would send it."""
    got = ec_serves_agree(_ec_fixed(nchunks=4, beta_rtts=3.0, arrivals=[
        (17, 0, "data", 0, 0), (18, 0, "data", 0, 1),
    ]))
    assert [look[0] for look in got["checks"][:2]] == [17 * UNIT, 18 * UNIT]
    assert got["sent"][0][1].startswith("EcNack")


class WaiterCountingEcReceiver(EcReceiver):
    """Records, after every recoverability wake, the most untriggered chunk
    waiters any handle of the receive holds, and every live chunk count
    with the chunks its segment had then and needs to turn recoverable."""

    most: list[int] = []
    counts: list[tuple] = []

    def _await_recoverable(self, rx):
        super()._await_recoverable(rx)
        self.most.append(max(
            sum(not ev.triggered for ev in h._chunk_waiters) for h in rx.handles
        ))
        for data, parity in zip(rx.data, rx.parity):
            count = data.count
            if count is not None and count.left > 0:
                assert parity.count is count
                arrived = data.bitmap().count() + parity.bitmap().count()
                self.counts.append((count.left, arrived, len(data.bitmap())))


@settings(max_examples=60, deadline=None)
@given(ec_schedules())
def test_ec_keeps_at_most_one_live_waiter_per_handle(sched):
    """No chunk waiter at all: a pending segment's two handles share one
    count, which fires no earlier than the arrival that reaches its bound
    (or the next one, once the bound is reached)."""
    WaiterCountingEcReceiver.most = most = []
    WaiterCountingEcReceiver.counts = counts = []
    drive_ec(WaiterCountingEcReceiver, sched)
    assert all(n == 0 for n in most), most
    assert all(
        left == 1 or arrived + left == bound for left, arrived, bound in counts
    ), counts


def test_ec_waiters_do_not_pile_up_over_many_wakes():
    WaiterCountingEcReceiver.most = most = []
    WaiterCountingEcReceiver.counts = []
    drive_ec(WaiterCountingEcReceiver, _ec_fixed())
    assert len(most) >= 4 and max(most) == 0, most
