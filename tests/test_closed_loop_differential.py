"""Differential test: ``repro.stack.closed_loop`` against the generator loops it replaced.

``generator_closed_loop`` is the closed loop ``run_demo`` and ``run_incast``
each ran as a generator process before: post a receive and a write, yield
the write's ``done``, abandon the receive of a failed write, go again.  The
callback loop starts and ends where the process did (its boot entry, the
event its return fired), so under either runner the whole run's ``(time,
seq)`` dispatch sequence must be equal, on top of every ticket and the
registry.  ``run_incast`` joined its loops with an ``all_of`` gate before;
it now runs until each loop's end in turn, so the gate's entry is gone in
both runs here, and the goldens hold that removal.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro import stack
from repro.cc import incast
from repro.common.errors import ReproError
from repro.common.units import KiB, MiB, distance_to_rtt
from repro.faults import FaultSchedule, FaultWindow
from repro.reliability.sr import SrConfig
from repro.telemetry import demo

from tests.conftest import recording_sims


def generator_closed_loop(
    sim, sender, receiver, mr, length, more, write_tickets, recv_tickets=None
):
    """``closed_loop`` before the callbacks: one generator process."""

    def loop():
        posted = 0
        while more(posted):
            posted += 1
            received = receiver.post_receive(mr, length)
            if recv_tickets is not None:
                recv_tickets.append(received)
            ticket = sender.write(length)
            write_tickets.append(ticket)
            try:
                yield ticket.done
            except ReproError:
                receiver.abandon(received)

    return sim.process(loop())


def run(module, runner, loop, **kw):
    """``runner(**kw)`` with ``module.closed_loop`` replaced by ``loop``."""
    with recording_sims() as sims, mock.patch.object(module, "closed_loop", loop):
        result = runner(**kw)
    return {
        "dispatched": sims[0].dispatched,
        "elapsed": result.elapsed,
        "writes": [
            (t.seq, t.finish_time, t.failed, t.retransmitted_chunks)
            for t in result.write_tickets
        ],
        "registry": json.dumps(result.sim.telemetry.metrics.snapshot(), sort_keys=True),
    }


RTT = distance_to_rtt(1000.0)


@pytest.mark.parametrize(
    "kw",
    [
        dict(protocol="sr", messages=3, message_bytes=256 * KiB, drop=0.02),
        dict(protocol="ec", messages=2, message_bytes=MiB, drop=0.02),
        dict(protocol="sampling", messages=2, message_bytes=256 * KiB, drop=0.02),
        # A data blackout runs the first writes out of retransmits: each
        # failure abandons its receive and the loop goes on to the next
        # message.
        dict(
            protocol="sr", messages=3, message_bytes=256 * KiB, drop=0.01,
            sr_config=SrConfig(max_chunk_retransmits=1),
            faults=FaultSchedule(
                (FaultWindow(kind="blackout", start=0.0, end=20 * RTT, selector="data"),),
                name="early-blackout",
            ),
        ),
    ],
)
def test_demo_loop_matches_generator_loop(kw):
    got = run(demo, demo.run_demo, stack.closed_loop, **kw)
    assert got == run(demo, demo.run_demo, generator_closed_loop, **kw)
    if "faults" in kw:
        assert any(failed for _, _, failed, _ in got["writes"])


@pytest.mark.parametrize(
    "kw",
    [
        # Unpaced: tail drops in the 16 KiB buffer, SR retransmits.
        dict(senders=3, cc="none", messages_per_sender=3),
        dict(senders=4, cc="swift", messages_per_sender=2, message_bytes=32 * KiB),
        # Duration-bound: the loops stop posting at 2 ms, the run at 2 ms.
        dict(senders=2, cc="dcqcn", duration=0.002),
    ],
)
def test_incast_loops_match_generator_loops(kw):
    got = run(incast, incast.run_incast, stack.closed_loop, **kw)
    assert got == run(incast, incast.run_incast, generator_closed_loop, **kw)
    assert any(retx for *_, retx in got["writes"]) or "duration" in kw
