"""Differential test: the SR sender's clock and bookkeeping against what they replaced.

``ReferenceSrSender`` carries the sender side of Selective Repeat as it
stood before the feedback loop went scalar-cost: a ``_timer_loop``
*process* parked on ``any_of([timeout, wake])``, a boolean ``unacked``
array beside ``deadline``, the horizon read through two masked ``any()``
and a masked ``min()``, ``complete`` as ``not unacked.any()`` and an ACK
loop over the set of *every* acknowledged chunk.  It is kept here as the
reference.  Hypothesis draws a schedule -- chunks hitting the wire, ACKs
(cumulative + window), plane failovers, writes revived from a resumption
by the receiver's answering ACK -- and both senders must retransmit the same chunks at the same
instants, finish the same writes at the same instants, agree on horizon,
``complete`` and ``delivered`` after every step, and leave the drained
clock on the same dead timer entry.

Ties are kept out by construction, because that is the one place the two
differ by design (``docs/simulation.md``): a kick re-reads the horizon in
its own dispatch, the generator one same-instant hop later.  Schedule
steps sit on whole ticks and the RTO is a fractional number of ticks, so
no expiry shares an instant with a step.

The clock has a second reference, where same-instant order is the point:
the sender as it kicked the clock on every armed chunk, one ``_wake``
dispatch each to re-read a horizon that an arm at or after it cannot
move.  The sender now re-arms ``_rto_timer`` at that horizon in place.  An
8-sender Swift incast with ``adaptive_rto`` and ``rto_backoff``, where
senders' expiries share instants, must trace, count and dispatch the same
with either, ``_wake`` entries aside.  Hypothesis draws schedules with
NACKs, backoff and retry budgets against the same reference, and two
fixed schedules pin the cached horizon's invalidations: an unkicked NACK
re-arm below it, and a write failed by a NACK while it held it.
"""

from __future__ import annotations

import contextlib
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.incast import run_incast
from repro.common.units import KiB
from repro.reliability.messages import Ack, SrNack
from repro.reliability.sr import SrConfig, SrSender, _SendState
from repro.telemetry import JsonlSink, Telemetry

from tests.conftest import NamingSimulator, make_sdr_pair, numbered, recording_sims

UNIT = 1e-6
CHUNK = 8 * KiB
RTT = 10.37 * UNIT  # RTO = 3 RTT = 31.11 ticks: never on a whole tick
LAST_TICK = 200


class RecordingSender(SrSender):
    """The sender under test; only what would touch the wire is replaced."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.log: list[tuple] = []

    def _retransmit(self, state, index, *, rto):
        self.log.append((self.sim.now, "retx", state.hdl.seq, index, rto))
        state.retransmit_count[index] += 1
        self._queue_restamp(state, index)  # unpaced: re-arms inline, no kick
        return True

    def _inject_chunks(self, state):
        self._maybe_finish(state)  # an answer with nothing missing ends here

    def _complete_write(self, state, **span):
        self.log.append((self.sim.now, "done", state.hdl.seq))
        super()._complete_write(state, **span)

    def horizon(self):
        """What ``_retime`` reads: the minimum over every ``deadline``."""
        return min(
            (float(s.deadline.min()) for s in self._states.values()),
            default=np.inf,
        )


class _ReferenceSendState(_SendState):
    def __init__(self, ticket, handles, nchunks, payload):
        super().__init__(ticket, handles, nchunks, payload)
        self.unacked = np.ones(nchunks, dtype=bool)

    @property
    def complete(self):
        return not self.unacked.any()

    @property
    def delivered(self):
        return ~self.unacked


class ReferenceSrSender(RecordingSender):
    """``SrSender``'s timer process and per-chunk bookkeeping, pre-change."""

    state_type = _ReferenceSendState

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self._timer_wake = None
        self.sim.process(self._timer_loop())

    def _retime(self):
        pass  # the callback clock never starts

    def on_plane_failover(self, plane):
        now = self.sim.now
        kicked = False
        for state in self._states.values():
            mask = state.unacked & np.isfinite(state.deadline)
            if mask.any():
                state.deadline[mask] = np.minimum(state.deadline[mask], now)
                kicked = True
        if kicked:
            self._kick_timer()

    def _arm(self, state, index, *, kick=True):
        if state.unacked[index]:
            state.deadline[index] = self.sim.now + self.rto
            state.sent_at[index] = self.sim.now
            if kick:
                self._kick_timer()

    def _kick_timer(self):
        if self._timer_wake is not None and not self._timer_wake.triggered:
            self._timer_wake.succeed(None)

    def horizon(self):
        deadlines = [
            float(s.deadline[s.unacked].min())
            for s in self._states.values()
            if s.unacked.any() and np.isfinite(s.deadline[s.unacked]).any()
        ]
        return min(deadlines) if deadlines else np.inf

    def _timer_loop(self):
        while True:
            deadlines = [
                float(s.deadline[s.unacked].min())
                for s in self._states.values()
                if s.unacked.any() and np.isfinite(s.deadline[s.unacked]).any()
            ]
            self._timer_wake = self.sim.event()
            if not deadlines:
                yield self._timer_wake
                continue
            horizon = min(deadlines)
            if horizon > self.sim.now:
                yield self.sim.any_of(
                    [self.sim.timeout(horizon - self.sim.now), self._timer_wake]
                )
            if self.sim.now >= horizon:
                self._fire_expired()

    def _fire_expired(self):
        now = self.sim.now
        for state in list(self._states.values()):
            for index in np.flatnonzero(state.unacked & (state.deadline <= now)):
                self._retransmit(state, int(index), rto=True)

    def _on_ctrl(self, msg):
        assert isinstance(msg, Ack)
        state = self._states.get(msg.msg_seq) or self._revive(msg.msg_seq)
        if state is None:
            return
        acked = set(range(min(msg.cumulative, state.nchunks)))
        for byte_i, byte in enumerate(msg.window):
            for bit in range(8):
                idx = msg.window_start + byte_i * 8 + bit
                if byte >> bit & 1 and idx < state.nchunks:
                    acked.add(idx)
        for index in acked:
            if state.unacked[index]:
                state.unacked[index] = False
                state.deadline[index] = np.inf
        self._maybe_finish(state)


@st.composite
def schedules(draw, kinds=("arm", "arm", "ack", "ack", "failover")):
    nwrites = draw(st.integers(1, 3))
    sizes = [draw(st.integers(1, 20)) for _ in range(nwrites)]
    steps = []
    ticks = draw(
        st.lists(st.integers(1, 150), min_size=1, max_size=30, unique=True)
    )
    for tick in sorted(ticks):
        w = draw(st.integers(0, nwrites - 1))
        n = sizes[w]
        kind = draw(st.sampled_from(kinds))
        if kind in ("arm", "nack"):
            chunks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
            steps.append((tick, kind, w, tuple(chunks)))
        elif kind == "ack":
            cumulative = draw(st.integers(0, n))
            start = (cumulative // 8) * 8
            window = draw(st.binary(max_size=3))
            steps.append((tick, "ack", w, (cumulative, start, window)))
        else:
            steps.append((tick, "failover", w, ()))
    # A write may be revived from a resumption: the answer's window
    # presets what is unacked.
    presets = [
        draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
        for n in sizes
    ]
    return sizes, presets, steps


def drive(sender_cls, schedule, config=SrConfig()):
    sizes, presets, steps = schedule
    pair = make_sdr_pair(chunk=CHUNK, inflight=8)
    sender = sender_cls(pair.qp_a, pair.ctrl_a, config, rtt=RTT)
    sim = pair.sim
    states = []
    for n, preset in zip(sizes, presets):
        seq = sender.write(n * CHUNK).seq
        states.append(sender._states[seq])
        if preset is None:
            continue
        # A write revived from a resumption: it waits for the receiver's
        # answer, an ACK whose LSB-first window runs from the cumulative
        # byte (as ``SrReceiver._send_ack`` builds it); the sender reports
        # what it holds as a DeliveryError's MSB-first bitmap.
        delivered = np.array(preset, dtype=bool)
        sender._resuming[seq] = sender._states.pop(seq)
        start = (n if delivered.all() else int(np.argmin(delivered))) // 8 * 8
        window = np.packbits(delivered[start:], bitorder="little").tobytes()
        sender._on_ctrl(Ack(seq, start, start, window))
        assert (states[-1].delivered == delivered).all()
    views = []

    def step(kind, w, arg):
        state = states[w]
        if state.hdl.seq not in sender._states:
            return  # the write already completed
        if kind == "arm":
            for index in arg:
                sender._arm(state, index)
        elif kind == "ack":
            sender._on_ctrl(Ack(state.hdl.seq, *arg))
        elif kind == "nack":
            sender._on_ctrl(SrNack(state.hdl.seq, arg))
        else:
            sender.on_plane_failover(0)
        views.append((
            sim.now, sender.horizon(),
            [(s.complete, s.delivered.tolist(), s.deadline.tolist()) for s in states],
        ))

    for tick, kind, w, arg in steps:
        sim.call_at(tick * UNIT, step, kind, w, arg)
    # Retransmission never gives up by itself: a last ACK ends every write.
    for w, n in enumerate(sizes):
        sim.call_at(LAST_TICK * UNIT, step, "ack", w, (n, 0, b""))
    sim.run()
    assert not sender._states
    return {"log": sender.log, "views": views, "clock": sim.now}


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_callback_clock_matches_generator_timer_loop(schedule):
    assert drive(RecordingSender, schedule) == drive(ReferenceSrSender, schedule)


def test_schedule_reaching_every_branch():
    """The fixed schedule the property would have to find."""
    sizes = [12, 3, 9]
    presets = [None, None, [True] * 4 + [False] * 5]
    steps = [
        (1, "arm", 0, (0, 1, 2, 3)),
        (2, "arm", 1, (0, 1, 2)),
        (3, "arm", 2, (0, 5, 6)),       # chunk 0 is preset: stays disarmed
        (5, "ack", 0, (2, 0, b"\x08")),  # cumulative 2 + chunk 3
        (9, "failover", 0, ()),          # clamps 0:2, 1:0-2, 2:5-6 to now
        (20, "ack", 1, (3, 0, b"")),     # write 1 completes
        (40, "arm", 0, (4, 5)),
        (41, "ack", 0, (12, 8, b"")),    # write 0 completes with timers live
        (90, "ack", 2, (9, 8, b"")),
    ]
    got = drive(RecordingSender, (sizes, presets, steps))
    assert got == drive(ReferenceSrSender, (sizes, presets, steps))
    kinds = [entry[1] for entry in got["log"]]
    assert kinds.count("done") == 3 and kinds.count("retx") >= 5
    # The failover fired everything that was running, in its own instant.
    assert [e[2:4] for e in got["log"] if e[0] == 9 * UNIT] == [
        (0, 2), (1, 0), (1, 1), (1, 2), (2, 5), (2, 6),
    ]
    # Write 0's cancelled expiries still drain: the clock ends on the last.
    assert got["clock"] > 90 * UNIT


@pytest.mark.parametrize("nchunks", [1, 7, 8, 9, 64, 200])
def test_resumed_preset_reads_the_grant_bitmap_msb_first(nchunks):
    """A revived write's unacked chunks are preset from the receiver's
    answer (its ``resume_grant``), an LSB-first ACK window, and it reports
    them back MSB-first, as a ``DeliveryError`` bitmap."""
    rng = np.random.default_rng(nchunks)
    delivered = rng.random(nchunks) < 0.5
    got = drive(RecordingSender, ([nchunks], [delivered.tolist()], []))
    assert got == drive(ReferenceSrSender, ([nchunks], [delivered.tolist()], []))


# -- the in-place re-arm against a kick per armed chunk -------------------------


def _kick_every_arm(self, state, index, *, kick=True):
    """``SrSender._arm`` before the in-place re-arm: every kicked arm costs a
    ``_wake`` dispatch that re-reads the horizon over every write."""
    if state.unacked >> index & 1:
        state.deadline[index] = self.sim.now + self.rto
        state.sent_at[index] = self.sim.now
        if kick:
            self._kick_timer()


def clock(*, kick_every_arm):
    """The kick-per-arm ``_arm`` patched in, or the sender as it is."""
    if kick_every_arm:
        return mock.patch.object(SrSender, "_arm", _kick_every_arm)
    return contextlib.nullcontext()


def incast_run(*, kick_every_arm):
    buf = io.StringIO()
    telemetry = Telemetry(trace=True, trace_sinks=[JsonlSink(buf)])
    with clock(kick_every_arm=kick_every_arm), recording_sims(NamingSimulator) as sims:
        result = run_incast(
            senders=8, cc="swift", messages_per_sender=6, telemetry=telemetry
        )
    (sim,) = sims
    ran = numbered(sim.ran)
    return {
        "ran": [entry for entry in ran if entry[1] != "SrSender._on_wake"],
        "trace": buf.getvalue(),
        "registry": json.dumps(telemetry.metrics.snapshot(), sort_keys=True),
        "clock": sim.now,
        "elapsed": result.elapsed,
    }, sum(entry[1] == "SrSender._on_wake" for entry in ran)


def test_in_place_rearm_matches_a_kick_per_arm():
    got, wakes = incast_run(kick_every_arm=False)
    want, kicks = incast_run(kick_every_arm=True)
    assert got == want
    trace = got["trace"]
    assert trace.count('"rto_fire"') > 10 and trace.count('"cc_stall"') > 10
    assert 0 < wakes < kicks - 100, (wakes, kicks)  # most arms re-armed in place


class BudgetedSender(RecordingSender):
    """Spends the per-message retry budget as ``SrSender._retransmit`` does,
    so a NACK can fail its write (and take its deadlines with it)."""

    def _retransmit(self, state, index, *, rto):
        if self._budget_exhausted(state):
            return False
        state.ticket.retransmitted_chunks += 1
        return super()._retransmit(state, index, rto=rto)


def clock_run(schedule, config, *, kick_every_arm):
    """``drive`` with the live dispatches beside it, ``_wake``'s aside.

    Dead entries are left out: two arms re-armed in place in one instant
    leave one more superseded expiry than the one kick they replace did.
    """
    with clock(kick_every_arm=kick_every_arm), recording_sims(NamingSimulator) as sims:
        got = drive(BudgetedSender, schedule, config)
    (sim,) = sims
    got["ran"] = [
        e for e in numbered(sim.ran) if e[3] and e[1] != "SrSender._on_wake"
    ]
    return got


@settings(max_examples=150, deadline=None)
@given(
    schedules(kinds=("arm", "arm", "ack", "ack", "failover", "nack")),
    st.builds(
        SrConfig, rto_backoff=st.booleans(),
        max_message_retransmits=st.none() | st.integers(1, 4),
    ),
)
def test_in_place_rearm_matches_a_kick_per_arm_on_any_schedule(schedule, config):
    """Re-arms of a chunk already armed, NACK retransmissions (unkicked),
    backoff and writes failed by a NACK, drawn: the senders agree on
    every retransmission, view and timer entry."""
    got = clock_run(schedule, config, kick_every_arm=False)
    assert got == clock_run(schedule, config, kick_every_arm=True)


def test_an_unkicked_arm_below_the_horizon_still_wakes_the_clock():
    """A NACK retransmission re-arms its chunk without a kick.  With Karn's
    backoff just reset by an ACK, that deadline falls below the horizon a
    backed-off chunk holds, so a later arm at or after that horizon must
    still wake the clock: re-armed in place, the NACKed chunk's expiry
    would wait for the old horizon."""
    schedule = ([2, 1], [None, None], [
        (1, "arm", 0, (0,)),  # expires at 32.11, backs off to 94.33
        (40, "ack", 1, (1, 0, b"")),  # progress resets the backoff
        (50, "nack", 0, (0,)),  # due at 81.11, below 94.33
        (70, "arm", 0, (1,)),  # due at 101.11, after 94.33
    ])
    config = SrConfig(rto_backoff=True)
    got = clock_run(schedule, config, kick_every_arm=False)
    assert got == clock_run(schedule, config, kick_every_arm=True)
    retx = [(round(e[0] / UNIT, 2), e[3], e[4]) for e in got["log"] if e[1] == "retx"]
    assert retx[:3] == [(32.11, 0, True), (50.0, 0, False), (81.11, 0, True)]


def test_a_write_failed_by_a_nack_takes_its_deadlines_off_the_horizon():
    """The horizon is write 0's NACK-restamped chunk when a second NACK
    spends write 0's budget: the write fails and leaves ``_states``, so a
    later arm must re-read the horizon, not re-arm the clock at the dead
    write's deadline."""
    schedule = ([1, 2], [None, None], [
        (1, "arm", 0, (0,)),
        (20, "nack", 0, (0,)),  # budget spent; due at 51.11; re-read at 32.11
        (35, "arm", 1, (0,)),  # due at 66.11: re-armed in place at 51.11
        (40, "nack", 0, (0,)),  # over budget: write 0 fails
        (45, "arm", 1, (1,)),  # due at 76.11: the horizon is 66.11 now
    ])
    config = SrConfig(max_message_retransmits=1)
    got = clock_run(schedule, config, kick_every_arm=False)
    assert got == clock_run(schedule, config, kick_every_arm=True)
    # Write 0's second NACK retransmits nothing; write 1's chunk 0 expires.
    assert [(round(e[0] / UNIT, 2), *e[1:]) for e in got["log"]] == [
        (20.0, "retx", 0, 0, False), (66.11, "retx", 1, 0, True),
    ]
    expiries = [round(t / UNIT, 2) for t, name, _o, _live in got["ran"]
                if name == "SrSender._on_rto"]
    assert 51.11 not in expiries and 66.11 in expiries
