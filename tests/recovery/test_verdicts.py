"""The verdict oracle: both sides of every write agree on its fate.

Hypothesis draws a scheme, 2-4 data-backed writes with each receive
posted before, between or after the sends, one data or control blackout
or brownout, a resumption budget and a seed.  The application is the
usual one: a write that fails has its receive abandoned (at once, or as
soon as it is posted).  Whatever the fault did, for every write:

* the sender's ticket succeeds if and only if the receiver's does --
  with resumption off, only a success must be two-sided: a sender whose
  every acknowledgment died gives up on a write the receiver completed,
  and no exchange is left to tell it otherwise;
* a receive that completes holds its own write's payload;
* a failed write's ``DeliveryError`` bitmap lies within what the receiver
  holds of the message;
* the run drains.

Draws are derandomized, so the examples run (and the lines they reach)
are a function of the tree.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.common.errors import DeliveryError
from repro.common.units import KiB
from repro.faults import FaultSchedule, FaultWindow
from repro.reliability.ec import EcConfig
from repro.reliability.sampling import SamplingConfig
from repro.reliability.sr import SrConfig
from repro.stack import endpoints

from tests.conftest import drains_within, make_sdr_pair
from tests.reliability.conftest import random_payload

SIZE = 64 * KiB  # 8 chunks of 8 KiB
RTT = make_sdr_pair().channel.rtt
#: When the "after" receives are posted, in RTTs.
LATE_RTTS = (1.0, 6.0, 30.0)
ORDER = {"before": 0, "between": 1, "after": 2}


def _configs(scheme: str, resumptions: int) -> dict:
    sr = SrConfig(
        nack_enabled=scheme == "sr_nack", max_message_retransmits=8,
        max_resumptions=resumptions,
    )
    ec = EcConfig(k=4, m=2, global_timeout_rtts=10.0, max_resumptions=resumptions)
    if scheme == "adaptive":
        return {"sr_config": sr, "ec_config": ec}
    if scheme == "ec":
        return {"config": ec}
    if scheme == "sampling":
        return {"config": SamplingConfig(
            idle_timeout_rtts=2.0, max_idle_timeouts=3,
            max_message_retransmits=16, max_resumptions=resumptions,
        )}
    return {"config": sr}


def _bitmap(error: DeliveryError, total: int) -> np.ndarray:
    if not error.bitmap:
        return np.zeros(total, dtype=bool)
    bits = np.frombuffer(error.bitmap, dtype=np.uint8)
    return np.unpackbits(bits, count=total).astype(bool)


def run_case(scheme, posts, fault, resumptions, seed, late):
    """One drawn scenario, run until it drains; returns the verdict rows
    ``(sent, received, payload intact, sender bitmap within receiver's)``."""
    kind, selector, start, length = fault
    window = FaultWindow(
        kind=kind, start=start * RTT, end=(start + length) * RTT,
        selector=selector, drop_probability=1.0 if kind == "blackout" else 0.5,
    )
    pair = make_sdr_pair(
        seed=seed, inflight=64, faults=FaultSchedule((window,), name="oracle"),
    )
    scheme_name = scheme if scheme != "sr_nack" else "sr"
    sender, receiver = endpoints(scheme_name, pair, **_configs(scheme, resumptions))
    n = len(posts)
    payloads = [random_payload(SIZE, 10 * seed + i) for i in range(n)]
    bufs = [bytearray(SIZE) for _ in range(n)]
    writes: list = [None] * n
    receives: list = [None] * n

    def settle(i: int) -> None:
        """Write ``i`` failed: what is missing of it is not coming."""
        if receives[i] is not None:
            receiver.abandon(receives[i])

    def post(i: int) -> None:
        mr = pair.ctx_b.mr_reg(SIZE, data=bufs[i])
        receives[i] = receiver.post_receive(mr, SIZE)
        receives[i].done.callbacks.append(lambda ev: None)
        if writes[i] is not None and writes[i].failed:
            settle(i)

    def write(i: int) -> None:
        writes[i] = ticket = sender.write(SIZE, payloads[i])
        ticket.done.callbacks.append(
            lambda ev: settle(i) if ticket.failed else None
        )

    for i, when in enumerate(posts):
        if when == "before":
            post(i)
    for i in range(n):
        write(i)
        if posts[i] == "between":
            post(i)
    late_ones = [i for i, when in enumerate(posts) if when == "after"]
    if late_ones:
        pair.sim.call_in(late * RTT, lambda: [post(i) for i in late_ones])
    drains_within(pair.sim, dispatches=400_000, sim_seconds=3000 * RTT)

    rows = []
    for i in range(n):
        w, r = writes[i], receives[i]
        sent = w.done.triggered and not w.failed
        received = r.done.triggered and r.done.ok
        within = True
        if w.failed:
            err = w.done._error
            total = err.total_chunks
            mine = _bitmap(err, total)
            if received:
                theirs = np.ones(total, dtype=bool)
            elif r.done.triggered:
                theirs = _bitmap(r.done._error, total)
            else:
                theirs = np.zeros(total, dtype=bool)
            within = not (mine & ~theirs).any()
        intact = not received or bytes(bufs[i]) == payloads[i]
        rows.append((w.done.triggered, r.done.triggered, sent, received, intact, within))
    return rows


def assert_verdicts(rows, resumptions: int) -> None:
    for i, (w_done, r_done, sent, received, intact, within) in enumerate(rows):
        assert w_done and r_done, f"write {i} left unresolved ({w_done=}, {r_done=})"
        assert sent == received or (received and not resumptions), (
            f"write {i}: the sender says {'delivered' if sent else 'failed'}, "
            f"the receiver {'completed' if received else 'did not'}"
        )
        assert intact, f"receive {i} completed holding another write's bytes"
        assert within, f"write {i}'s failure claims chunks the receiver lacks"


FAULTS = st.tuples(
    st.sampled_from(["blackout", "brownout"]),
    st.sampled_from(["data", "control"]),
    st.sampled_from([0.0, 0.5, 1.5, 3.0]),
    st.sampled_from([2.0, 6.0, 15.0, 40.0]),
)


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    report_multiple_bugs=False,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scheme=st.sampled_from(["sr", "sr_nack", "ec", "sampling", "adaptive"]),
    # Receives are posted in write order: a sorted tuple, one per write.
    posts=st.lists(
        st.sampled_from(sorted(ORDER)), min_size=2, max_size=4
    ).map(lambda p: tuple(sorted(p, key=ORDER.get))),
    fault=FAULTS,
    resumptions=st.sampled_from([0, 1, 2]),
    seed=st.integers(0, 3),
    late=st.sampled_from(LATE_RTTS),
)
# Scenarios the oracle found while a resumption re-posted its write under a
# fresh slot, pinned so they run first on every tree:
# - the receiver finished the write, its acknowledgments died, and the
#   resume request went unanswered (SR, EC, sampling);
@example("sr_nack", ("between", "between"), ("blackout", "control", 0.5, 15.0), 1, 1, 1.0)
@example("ec", ("between",) * 4, ("blackout", "control", 0.5, 15.0), 2, 0, 6.0)
@example("sampling", ("between", "after"), ("blackout", "control", 0.5, 15.0), 1, 3, 30.0)
# - a failed resumed write claimed chunks its fresh slot was preset with;
@example("sr", ("before", "before", "after"), ("brownout", "data", 0.5, 6.0), 2, 0, 30.0)
# - resume requests and grants crossed without end (no drain);
@example("sr", ("before", "after", "after"), ("brownout", "control", 0.0, 15.0), 1, 0, 30.0)
# - under adaptive, a write whose provision arrived first took an earlier
#   write's slot.
@example("adaptive", ("before", "after"), ("blackout", "control", 0.0, 2.0), 0, 0, 1.0)
def test_both_sides_agree_on_every_write(scheme, posts, fault, resumptions, seed, late):
    assert_verdicts(run_case(scheme, posts, fault, resumptions, seed, late), resumptions)
