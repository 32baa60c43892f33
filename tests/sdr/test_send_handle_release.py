"""A finished send's handle leaves the QP, whichever of "last packet
injected" and "stream ended" comes last.

The lifecycle tests pin the retire rule the send-CQ drain spells out inline
(``SendHandle.poll``: ended and every posted packet injected) on both
paths that retire a handle: the send-CQ drain and ``send_stream_end``
after the last injection CQE.  After each, no handle is left on the QP and ``done()`` fired exactly once.
"""

from repro.common.units import KiB
from repro.sdr.qp import SdrRecvWr, SdrSendWr
from repro.telemetry import RingBufferSink, Telemetry

from tests.conftest import make_sdr_pair

SIZE = 16 * KiB


def _stream(p):
    mr = p.ctx_b.mr_reg(SIZE)
    p.qp_b.recv_post(SdrRecvWr(mr=mr, length=SIZE))
    sh = p.qp_a.send_stream_start(SdrSendWr(length=SIZE))
    p.qp_a.send_stream_continue(sh, 0, SIZE)
    return sh


def test_end_after_the_last_injection_drops_the_handle(sdr_pair):
    """The reliability layers' normal case: SR ends its stream on the final
    ACK, long after the last packet left -- no later CQE comes to drop it."""
    p = sdr_pair
    sh = _stream(p)
    p.sim.run(until=p.channel.rtt * 3)
    assert sh.packets_injected == sh.packets_posted
    assert sh.seq in p.qp_a._send_handles  # still open: more may be posted
    fired = sh.done()
    p.qp_a.send_stream_end(sh)
    p.sim.run()
    assert sh.poll() and fired.ok
    assert not p.qp_a._send_handles


def test_end_before_the_last_injection_keeps_it_for_the_cqes(sdr_pair):
    p = sdr_pair
    sh = _stream(p)
    p.qp_a.send_stream_end(sh)
    assert sh.seq in p.qp_a._send_handles  # injection CQEs still need it
    p.sim.run()
    assert sh.poll()
    assert not p.qp_a._send_handles


def test_one_shot_send_drops_its_handle(sdr_pair):
    p = sdr_pair
    mr = p.ctx_b.mr_reg(SIZE)
    p.qp_b.recv_post(SdrRecvWr(mr=mr, length=SIZE))
    sh = p.qp_a.send_post(SdrSendWr(length=SIZE))
    p.sim.run()
    assert sh.poll()
    assert not p.qp_a._send_handles


# -- lifecycle: one retirement, one done() and one span per handle ------------


def _traced_pair():
    ring = RingBufferSink()
    p = make_sdr_pair(telemetry=Telemetry(trace=True, trace_sinks=[ring]))
    return p, ring


def _watch(p, sh) -> list:
    """Every firing of ``sh.done()``, as the handles it fired with."""
    fired: list = []
    sh.done().callbacks.append(lambda ev: fired.append(ev.value))
    return fired


def _assert_retired_once(p, ring, handles, fired):
    assert not p.qp_a._send_handles
    for sh, hits in zip(handles, fired):
        assert sh.poll() and sh.packets_injected == sh.packets_posted
        assert hits == [sh]
    spans = [e.args["seq"] for e in ring.events if e.name == "send_inject"]
    assert sorted(spans) == [sh.seq for sh in handles]


def test_lifecycle_packet_mode_drain():
    """One-shot sends end before their CQEs land: the drain retires them."""
    p, ring = _traced_pair()
    handles, fired = [], []
    for _ in range(3):
        mr = p.ctx_b.mr_reg(SIZE)
        p.qp_b.recv_post(SdrRecvWr(mr=mr, length=SIZE))
        sh = p.qp_a.send_post(SdrSendWr(length=SIZE))
        handles.append(sh)
        fired.append(_watch(p, sh))
    p.sim.run()
    assert p.qp_a.send_cq.total_posted == 3 * SIZE // (4 * KiB)
    _assert_retired_once(p, ring, handles, fired)


def test_lifecycle_stream_end_after_the_last_injection_cqe():
    p, ring = _traced_pair()
    sh = _stream(p)
    fired = _watch(p, sh)
    p.sim.run(until=p.channel.rtt * 3)
    assert sh.packets_injected == sh.packets_posted and not fired
    p.qp_a.send_stream_end(sh)
    p.sim.run()
    _assert_retired_once(p, ring, [sh], [fired])


def test_done_taken_after_retirement_fires_once():
    p, ring = _traced_pair()
    mr = p.ctx_b.mr_reg(SIZE)
    p.qp_b.recv_post(SdrRecvWr(mr=mr, length=SIZE))
    sh = p.qp_a.send_post(SdrSendWr(length=SIZE))
    p.sim.run()
    fired = _watch(p, sh)  # the handle is already retired
    p.sim.run()
    _assert_retired_once(p, ring, [sh], [fired])
