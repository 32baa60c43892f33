"""Both sides of a write agree on its fate across a resumption.

Order-based matching pairs the n-th send with the n-th receive (PAPER.md
§1), and a resumed write keeps its seq and its slot on both sides.
Whatever happens around it, the verdict for every write is two-sided: the
sender's ticket succeeds if and only if the receiver's does, and a receive
that completes holds its own write's bytes, never another's.  Each
scenario here broke that verdict while a resumption re-posted its write
under a fresh slot.
"""

import pytest

from repro.common.errors import DeliveryError
from repro.common.units import KiB, MiB, distance_to_rtt
from repro.faults import FaultSchedule, FaultWindow, named_schedule
from repro.reliability.ec import EcConfig, EcReceiver, EcSender
from repro.reliability.sampling import (
    SamplingConfig,
    SamplingReceiver,
    SamplingSender,
)
from repro.reliability.sr import SrConfig, SrReceiver, SrSender
from repro.telemetry.demo import run_demo

from tests.conftest import make_sdr_pair
from tests.recovery.test_resume import data_blackout
from tests.reliability.conftest import random_payload

SIZE = 256 * KiB


class _Run:
    """Seed 0, 256 KiB writes, each receive into a data-backed MR."""

    def __init__(self, sender_cls, receiver_cls, config, faults):
        self.rtt = make_sdr_pair(seed=0).channel.rtt
        self.pair = make_sdr_pair(seed=0, faults=faults(self.rtt))
        self.sender = sender_cls(self.pair.qp_a, self.pair.ctrl_a, config)
        self.receiver = receiver_cls(self.pair.qp_b, self.pair.ctrl_b, config)
        self.payloads = [random_payload(SIZE, i) for i in range(2)]
        self.bufs = [bytearray(SIZE) for _ in range(2)]
        self.writes = []
        self.receives = []

    def post_receive(self) -> None:
        buf = self.bufs[len(self.receives)]
        mr = self.pair.ctx_b.mr_reg(SIZE, data=buf)
        self.receives.append(self.receiver.post_receive(mr, SIZE))

    def write(self) -> None:
        payload = self.payloads[len(self.writes)]
        self.writes.append(self.sender.write(SIZE, payload))

    def run(self, until=None) -> None:
        """Run to ``until`` (an event or a time); a failed write is a
        verdict to check, not an error to raise."""
        try:
            self.pair.sim.run(until)
        except DeliveryError:
            pass

    def assert_fates_agree(self) -> None:
        for i, (write, receive) in enumerate(zip(self.writes, self.receives)):
            sent = write.done.triggered and not write.failed
            received = receive.done.triggered and receive.done.ok
            assert sent == received, (
                f"write {i}: the sender says {'delivered' if sent else 'failed'}, "
                f"the receiver {'completed' if received else 'did not'}"
            )
            if received:
                assert bytes(self.bufs[i]) == self.payloads[i], (
                    f"receive {i} completed holding another write's bytes"
                )


_SR_BACKED = {
    # The global timeout resumes write 0 inside a 12-RTT data blackout.
    "ec": (
        EcSender, EcReceiver,
        EcConfig(global_timeout_rtts=10.0, max_resumptions=1),
        data_blackout,
    ),
    # The idle watchdog resumes write 0 inside a 20-RTT data blackout.
    "sampling": (
        SamplingSender, SamplingReceiver,
        SamplingConfig(max_resumptions=1),
        lambda rtt: data_blackout(rtt, end_rtts=20.0),
    ),
}


@pytest.mark.parametrize("scheme", sorted(_SR_BACKED))
def test_write_posted_during_the_backstop_takeover(scheme):
    """Write 0 resumes, and write 1 is posted as the resumption starts:
    it takes the next seq, and its receive, posted once write 0 is done,
    gets its bytes."""
    run = _Run(*_SR_BACKED[scheme])
    run.post_receive()
    run.write()
    while run.writes[0].resumptions == 0:
        run.pair.sim.step()
    run.write()
    run.run(run.writes[0].done)
    run.post_receive()
    run.run(1000 * run.rtt)
    run.assert_fates_agree()


def test_sr_sender_ahead_of_the_receiver():
    """SR, a data blackout to 3.6 RTT, one posted receive and two writes
    back to back; the second receive is posted once write 0's fate is
    known."""
    run = _Run(
        SrSender, SrReceiver,
        SrConfig(max_message_retransmits=8, max_resumptions=1),
        lambda rtt: data_blackout(rtt, end_rtts=3.6),
    )
    run.post_receive()
    run.write()
    run.write()
    run.run(run.writes[0].done)
    run.post_receive()
    run.run(1000 * run.rtt)
    run.assert_fates_agree()


def test_sr_delivered_write_whose_final_acks_died():
    """SR with resumption armed, a control blackout from 0.9 to 20 RTT:
    the write lands, every ACK for it dies, the sender's retransmissions
    run out and its resume requests reach the receiver after the
    blackout (the ``repro chaos --schedule ack-blackout --recover``
    failure, one write at 100 km)."""
    run = _Run(
        SrSender, SrReceiver,
        SrConfig(max_message_retransmits=8, max_resumptions=1),
        lambda rtt: FaultSchedule(
            (
                FaultWindow(
                    kind="blackout", start=0.9 * rtt, end=20 * rtt,
                    selector="control",
                ),
            ),
            name="ack-blackout",
        ),
    )
    run.post_receive()
    run.write()
    run.run(1000 * run.rtt)
    assert run.receives[0].done.triggered  # the write landed
    run.assert_fates_agree()


def test_sr_write_whose_final_acks_died_resumes_without_waiting_out_its_budget():
    """``repro chaos --schedule ack-blackout --recover --messages 2 --drop
    0.01``: write 1 lands inside the control blackout, and every ACK for it
    dies until the receiver's grace window is over.  With resumption armed
    the sender asks for the bitmap after a few silent RTO rounds, and the
    receiver's finished answer completes the write; it does not spend its
    per-chunk retransmission valve (about 42 simulated seconds) first."""
    result = run_demo(
        protocol="sr", messages=2, message_bytes=MiB, drop=0.01,
        distance_km=1000.0, seed=0,
        faults=named_schedule("ack-blackout", rtt=distance_to_rtt(1000.0)),
        sr_config=SrConfig(
            adaptive_rto=True, rto_backoff=True, max_message_retransmits=2000,
            serve_deadline_rtts=600.0,
        ),
        recover=True,
    )
    assert result.failed_writes == 0
    assert all(t.done.ok for t in result.recv_tickets)
    write = result.write_tickets[1]
    assert write.resumptions == 1
    assert write.completion_time < 1.0
    assert write.retransmitted_chunks < 100
