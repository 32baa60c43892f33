"""Differential test: the callback ``_watch`` / ``_finish`` against the generators.

``GeneratorReceiver`` carries the receiver substrate's serve loop as it
stood before the timers went callback-only: ``_serve`` a *process*,
``_watch`` parked on ``any_of([timeout(interval), wait_all_chunks()])``
per poll, ``_finish`` on one ``timeout`` per grace re-signal.  It is kept
here as the reference.  Hypothesis draws a schedule -- chunks published
to the handle one by one, some never; an abandonment; a serve deadline --
and both receivers must poll at the same instants seeing the same bitmap,
finish or give up at the same instant, re-signal through the same grace
window and leave the drained clock on the same (possibly dead) entry.

Ties are kept out by construction, because that is the one place the two
differ by design (``docs/simulation.md``): the last chunk's event polls in
its own dispatch, the generator one same-instant hop later.  Schedule
steps sit on whole ticks and the poll interval is a fractional number of
ticks, so no poll shares an instant with a step.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DeliveryError
from repro.common.units import KiB
from repro.reliability.base import Receiver, ReceiveTicket
from repro.reliability.sr import SrConfig
from repro.sdr.qp import SdrRecvWr

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

    def adopt_slot(self, ticket, rh):
        """Start serving a re-posted slot the way ``SrReceiver.adopt`` does."""
        self.sim.call_in(0.0, self._serve, ticket, rh)


class GeneratorReceiver(RecordingReceiver):
    """``Receiver``'s serve loop as generator processes, pre-change."""

    def post_receive(self, mr, length, mr_offset=0):
        rh = self.qp.recv_post(SdrRecvWr(mr=mr, length=length, mr_offset=mr_offset))
        ticket = ReceiveTicket(
            seq=rh.seq, length=length, done=self.sim.event(), recv_handles=[rh]
        )
        self._serving[rh.seq] = (ticket, rh)
        self.sim.process(self._serve(ticket, rh))
        return ticket

    def adopt_slot(self, ticket, rh):
        self.sim.process(self._serve(ticket, rh))

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
        while not rh.all_chunks_received():
            if rh.completed:
                return False
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
    preset = draw(st.none() | st.lists(st.booleans(), min_size=nchunks, max_size=nchunks))
    return {
        "nchunks": nchunks,
        "publish": sorted(zip(ticks, arriving)),
        "preset": preset,
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
    if sched["preset"] is None:
        ticket = receiver.post_receive(mr, length)
        (rh,) = ticket.recv_handles
    else:
        # A slot re-posted by a resumption grant: some chunks already there.
        rh = pair.qp_b.recv_post(
            SdrRecvWr(mr=mr, length=length), preset_chunks=sched["preset"]
        )
        ticket = ReceiveTicket(
            seq=rh.seq, length=length, done=sim.event(), recv_handles=[rh]
        )
        receiver.adopt_slot(ticket, rh)
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
        "preset": None, "abandon": None, "deadline_rtts": None,
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


def test_cancelled_poll_timer_still_sets_the_drained_clock():
    sched = _fixed(publish=[(1, 0), (2, 1), (3, 2), (4, 3)], grace_rtts=0.0)
    got = drive(RecordingReceiver, sched)
    assert got == drive(GeneratorReceiver, sched)
    assert [e[1] for e in got["log"]] == ["poll", "full"]
    # Nothing live is left after tick 4, yet the run ends where the dead
    # poll entry armed at post time sat (CTS refreshes aside).
    assert got["clock"] >= INTERVAL
