"""A finished send's handle leaves the QP, whichever of "last packet
injected" and "stream ended" comes last."""

from repro.common.units import KiB
from repro.sdr.qp import SdrRecvWr, SdrSendWr

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
