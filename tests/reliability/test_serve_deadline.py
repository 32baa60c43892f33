"""A serve-deadline give-up abandons the receive's slots.

When ``serve_deadline_rtts`` fails a receive ticket, the application has
been told the buffer is not coming.  Its slots must then point at the NULL
mkey like any other abandoned receive: a chunk the sender retransmits
after the deadline dies there instead of writing the user buffer, and an
EC receive gives its parity scratch back to the pool.
"""

from repro.common.units import KiB, distance_to_rtt
from repro.faults import FaultSchedule, FaultWindow
from repro.reliability.ec import EcConfig
from repro.reliability.sr import SrConfig
from repro.stack import endpoints

from tests.conftest import make_sdr_pair
from tests.reliability.conftest import random_payload

SIZE = 64 * KiB  # 8 chunks of 8 KiB
RTT = distance_to_rtt(100.0)


def _blacked_out(protocol, config, *, until_rtts):
    """A pair whose data path is dark from the start for ``until_rtts``."""
    blackout = FaultWindow(
        kind="blackout", start=0.0, end=until_rtts * RTT, selector="data"
    )
    pair = make_sdr_pair(
        inflight=64, faults=FaultSchedule((blackout,), name="dark")
    )
    return (pair, *endpoints(protocol, pair, config))


def test_a_chunk_after_the_sr_serve_deadline_lands_on_the_null_mkey():
    config = SrConfig(serve_deadline_rtts=10.0)
    pair, sender, receiver = _blacked_out("sr", config, until_rtts=15.0)
    null = pair.qp_b.root_table.null_mr
    buf = bytearray(SIZE)
    mr = pair.ctx_b.mr_reg(SIZE, data=buf)
    rx = receiver.post_receive(mr, SIZE)
    sender.write(SIZE, random_payload(SIZE, 1))

    pair.sim.run(until=12 * RTT)
    assert rx.done.triggered and not rx.done.ok
    assert pair.qp_b._m_recv_abandoned.value == 1
    null_writes = null.write_count
    # The blackout lifts at 15 RTT; the next RTO round reaches the slot.
    pair.sim.run(until=30 * RTT)
    assert null.write_count > null_writes
    assert mr.write_count == 0 and bytes(buf) == bytes(SIZE)


def test_an_ec_serve_deadline_gives_its_parity_scratch_back():
    config = EcConfig(k=4, m=2, serve_deadline_rtts=5.0)
    pair, sender, receiver = _blacked_out("ec", config, until_rtts=1000.0)
    mr = pair.ctx_b.mr_reg(SIZE, data=bytearray(SIZE))
    rx = receiver.post_receive(mr, SIZE)
    scratch = [h.mr for h in rx.recv_handles[2:]]  # L = 2 segments of k = 4
    sender.write(SIZE, random_payload(SIZE, 1))

    pair.sim.run(until=100 * RTT)
    assert rx.done.triggered and not rx.done.ok
    assert all(h.completed for h in rx.recv_handles)
    assert pair.qp_b._m_recv_abandoned.value == len(rx.recv_handles)
    assert sorted(map(id, receiver._free_scratch[True])) == sorted(map(id, scratch))
