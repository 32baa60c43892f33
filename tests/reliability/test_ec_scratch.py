"""The EC receiver registers its parity scratch once and reuses it.

A real receiver never registers memory per message (``ibv_reg_mr`` pins
pages); the paper's NULL mkey plus generations exist so that a buffer can
be reused once its slot completes.  ``EcReceiver`` keeps a free list of
parity scratch per payload mode.  A scratch goes back on it only once
every slot that pointed at it points at the NULL mkey -- after completion,
or after an abandon or the serve deadline freed the slots
(``test_serve_deadline.py``) -- so late parity dies there instead of
landing in the next message's scratch.
"""

from repro.common.units import KiB, MiB, distance_to_rtt
from repro.faults import FaultSchedule, FaultWindow
from repro.reliability.ec import EcConfig
from repro.reliability.messages import ResumeReq
from repro.stack import endpoints

from tests.conftest import make_sdr_pair
from tests.reliability.conftest import random_payload

SIZE = 256 * KiB  # 32 chunks of 8 KiB: L = 4 segments of k = 8
L = 4


def _ec(config=EcConfig(k=8, m=4), **pair_kw):
    pair = make_sdr_pair(inflight=64, **pair_kw)
    return (pair, *endpoints("ec", pair, config))


def _scratch(ticket, nsub=L):
    """The parity scratch a receive was posted with (handles L..2L-1)."""
    return [h.mr for h in ticket.recv_handles[nsub : 2 * nsub]]


def test_registrations_stop_growing_and_every_buffer_is_exact():
    pair, sender, receiver = _ec(drop=0.01, seed=1)
    buf = bytearray(SIZE)
    mr = pair.ctx_b.mr_reg(SIZE, data=buf)
    mkeys, scratch = {}, set()
    for i in range(1, 41):
        payload = random_payload(SIZE, i)
        rx = receiver.post_receive(mr, SIZE)
        pair.sim.run(sender.write(SIZE, payload).done)
        assert rx.done.ok and bytes(buf) == payload, f"message {i}"
        scratch.update(_scratch(rx))
        mkeys[i] = len(pair.dev_b.mkeys)
    assert mkeys[10] == mkeys[40] == mkeys[1]
    assert len(scratch) == L  # one message's worth, serving all 40
    assert receiver._m_submessages_decoded.value > 0  # and reused for decodes


def test_late_parity_dies_on_the_null_mkey_while_its_scratch_serves_on():
    pair, sender, receiver = _ec(drop=0.02, seed=4)
    null = pair.qp_b.root_table.null_mr
    bufs = [bytearray(SIZE), bytearray(SIZE)]
    mrs = [pair.ctx_b.mr_reg(SIZE, data=b) for b in bufs]
    payloads = [random_payload(SIZE, s) for s in (1, 2)]

    rx1 = receiver.post_receive(mrs[0], SIZE)
    tx1 = sender.write(SIZE, payloads[0])
    pair.sim.run(rx1.done)  # recoverable: the slots are on the NULL mkey
    # The next receive is posted at once and takes message 1's scratch.
    rx2 = receiver.post_receive(mrs[1], SIZE)
    scratch = _scratch(rx2)
    assert set(scratch) == set(_scratch(rx1))
    null_writes = null.write_count
    scratch_writes = sum(s.write_count for s in scratch)
    pair.sim.run(tx1.done)  # message 1's parity lands while rx2 holds it
    assert null.write_count > null_writes
    assert sum(s.write_count for s in scratch) == scratch_writes

    decoded = receiver._m_submessages_decoded.value
    pair.sim.run(sender.write(SIZE, payloads[1]).done)
    assert receiver._m_submessages_decoded.value > decoded  # decoded from reused scratch
    assert rx2.done.ok and bytes(bufs[1]) == payloads[1]
    assert bytes(bufs[0]) == payloads[0]


def test_scratch_comes_back_after_a_resumption():
    # The ec_timed_salvage golden's shape: timed encode and decode, and a
    # data blackout long enough that the global timeout resumes message 1
    # in place; the fallback repeats finish it once the link is back.
    rtt = distance_to_rtt(1000.0)
    blackout = FaultWindow(
        kind="blackout", start=2.0 * rtt, end=40 * rtt, selector="data"
    )
    config = EcConfig(
        k=8, m=4, encode_bps=8e9, decode_bps=4e9, global_timeout_rtts=20.0,
        max_resumptions=1,
    )
    pair, sender, receiver = _ec(
        config, drop=0.02, bandwidth_bps=1e9, distance_km=1000.0,
        chunk=64 * KiB, seed=7, faults=FaultSchedule((blackout,), name="salvage"),
    )
    size, nsub = MiB, 2  # 16 chunks of 64 KiB
    buf = bytearray(size)
    mr = pair.ctx_b.mr_reg(size, data=buf)
    tickets = []
    for seed in (1, 2):
        payload = random_payload(size, seed)
        tickets.append(receiver.post_receive(mr, size))
        pair.sim.run(sender.write(size, payload).done)
        assert tickets[-1].done.ok and bytes(buf) == payload
    first, second = tickets
    assert first.resumptions == 1 and second.resumptions == 0
    assert set(_scratch(second, nsub)) == set(_scratch(first, nsub))


def test_a_resume_request_during_grace_decodes_nothing_from_reused_scratch():
    # Message 1 decoded, then gave its scratch to message 2, whose parity
    # now fills it.  A resume request for message 1 inside its grace
    # period is answered with its EcAck, and nothing of message 1 is
    # decoded again from message 2's parity.
    pair, sender, receiver = _ec(drop=0.02, seed=1)
    bufs = [bytearray(SIZE), bytearray(SIZE)]
    payloads = [random_payload(SIZE, s) for s in (1, 2)]
    tickets = []
    for buf, payload in zip(bufs, payloads):
        decoded = receiver._m_submessages_decoded.value
        tickets.append(
            receiver.post_receive(pair.ctx_b.mr_reg(SIZE, data=buf), SIZE)
        )
        pair.sim.run(sender.write(SIZE, payload).done)
        assert receiver._m_submessages_decoded.value > decoded
    first, second = tickets
    assert set(_scratch(second)) == set(_scratch(first))
    decoded = receiver._m_submessages_decoded.value
    pair.ctrl_a.send(ResumeReq(msg_seq=first.seq, attempt=1))
    pair.sim.run()
    assert first.resumptions == 1
    assert receiver._m_submessages_decoded.value == decoded
    assert bytes(bufs[0]) == payloads[0] and bytes(bufs[1]) == payloads[1]


def test_sized_and_payload_receives_never_share_scratch():
    pair, sender, receiver = _ec(drop=0.02, seed=2)
    buf = bytearray(SIZE)
    payload_mr, sized_mr = pair.ctx_b.mr_reg(SIZE, data=buf), pair.ctx_b.mr_reg(SIZE)
    seen = {True: set(), False: set()}
    for i in range(8):
        payload_mode = i % 2 == 0
        payload = random_payload(SIZE, i) if payload_mode else None
        rx = receiver.post_receive(payload_mr if payload_mode else sized_mr, SIZE)
        pair.sim.run(sender.write(SIZE, payload).done)
        assert rx.done.ok
        scratch = _scratch(rx)
        assert all(s.payload_mode == payload_mode for s in scratch)
        seen[payload_mode].update(scratch)
        if payload_mode:
            assert bytes(buf) == payload
    assert len(seen[True]) == len(seen[False]) == L
