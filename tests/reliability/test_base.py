"""Control path and ticket plumbing."""

import pytest

from repro.common.errors import ConfigError
from repro.reliability.base import ReceiveTicket, WriteTicket
from repro.reliability.messages import Ack, EcAck


class TestControlPath:
    def test_message_roundtrip(self, sdr_pair):
        p = sdr_pair
        got = []
        p.ctrl_b.on_message(got.append)
        p.ctrl_a.send(Ack(msg_seq=3, cumulative=7))
        p.sim.run()
        assert got == [Ack(msg_seq=3, cumulative=7)]
        assert p.ctrl_a.messages_sent == 1
        assert p.ctrl_b.messages_received == 1

    def test_multiple_handlers_all_invoked(self, sdr_pair):
        p = sdr_pair
        first, second = [], []
        p.ctrl_b.on_message(first.append)
        p.ctrl_b.on_message(second.append)
        p.ctrl_a.send(EcAck(msg_seq=1))
        p.sim.run()
        assert len(first) == len(second) == 1

    def test_bidirectional(self, sdr_pair):
        p = sdr_pair
        a_got, b_got = [], []
        p.ctrl_a.on_message(a_got.append)
        p.ctrl_b.on_message(b_got.append)
        p.ctrl_a.send(EcAck(msg_seq=1))
        p.ctrl_b.send(EcAck(msg_seq=2))
        p.sim.run()
        assert [m.msg_seq for m in b_got] == [1]
        assert [m.msg_seq for m in a_got] == [2]

    def test_oversized_message_rejected(self, sdr_pair):
        # A datagram past the path MTU is refused.  ``send`` fits a message
        # first (below), so only raw bytes can get this far.
        p = sdr_pair
        huge = Ack(msg_seq=0, cumulative=0, window=b"\xff" * (8 * 1024))
        with pytest.raises(ConfigError):
            p.ctrl_a.send_bytes(huge.pack())

    def test_oversized_message_is_fitted_to_the_mtu(self, sdr_pair):
        p = sdr_pair
        mtu = p.ctrl_a.qp.mtu
        huge = Ack(msg_seq=0, cumulative=0, window=b"\xff" * (8 * 1024))
        sent, wire = p.ctrl_a.send(huge)
        assert sent == huge._replace(window=huge.window[: mtu - 17])
        assert wire == sent.pack() and len(wire) == mtu
        p.sim.run()
        assert p.ctrl_b.messages_received == 1

    def test_small_messages_padded_to_min_frame(self, sdr_pair):
        p = sdr_pair
        p.ctrl_a.send(EcAck(msg_seq=1))
        p.sim.run()
        fwd = p.fabric.links[("dc-a", "dc-b")].forward
        assert fwd.stats.bytes_offered >= 64


class TestTickets:
    def test_write_ticket_completion_time(self, sdr_pair):
        sim = sdr_pair.sim
        ticket = WriteTicket(seq=0, length=10, start_time=1.0, done=sim.event())
        with pytest.raises(ConfigError):
            _ = ticket.completion_time
        ticket._finish(3.5)
        assert ticket.completion_time == pytest.approx(2.5)
        assert ticket.done.triggered

    def test_finish_is_idempotent(self, sdr_pair):
        sim = sdr_pair.sim
        ticket = WriteTicket(seq=0, length=10, start_time=0.0, done=sim.event())
        ticket._finish(1.0)
        ticket._finish(9.0)  # late duplicate ACK must not move the time
        assert ticket.finish_time == 1.0

    def test_receive_ticket_finish(self, sdr_pair):
        sim = sdr_pair.sim
        ticket = ReceiveTicket(seq=0, length=10, done=sim.event())
        ticket._finish(2.0)
        assert ticket.finish_time == 2.0
        assert ticket.done.triggered


def _demo():
    from repro.telemetry.demo import run_demo

    return run_demo(
        protocol="sr", messages=3, message_bytes=256 * 1024, drop=0.02,
        distance_km=100.0, seed=5,
    )


def _incast():
    from repro.cc.incast import run_incast

    return run_incast(senders=4, cc="swift", messages_per_sender=4)


@pytest.mark.parametrize("run", [_demo, _incast], ids=["run_demo", "run_incast"])
def test_no_completion_queue_is_left_holding_entries(run, monkeypatch):
    """A UD QP with a receive handler (``ControlPath``, the SDR CTS path)
    used to queue a CQE per datagram that nothing ever polled: 330-930
    entries per endpoint after a 16-message incast."""
    from repro.verbs.cq import CompletionQueue

    created = []
    init = CompletionQueue.__init__

    def spy(self, *args, **kw):
        init(self, *args, **kw)
        created.append(self)

    monkeypatch.setattr(CompletionQueue, "__init__", spy)
    run()
    handled = [cq for cq in created if "ctrl" in cq.name]
    # A control path and a CTS path per edge took datagrams (the sender's
    # side: ACKs and clear-to-sends flow towards it)...
    assert len(handled) >= 4
    assert sum(1 for cq in handled if cq.sim.telemetry.metrics.value(f"cq.{cq.name}.cqes_posted") > 2) >= 2
    # ...and every completion was consumed where its datagram was handled.
    assert [cq.name for cq in created if cq.entries] == []


def _drain(scheme, messages=3, size=64 * 1024):
    from repro.stack import endpoints
    from tests.conftest import make_sdr_pair

    pair = make_sdr_pair(drop=0.02, seed=3)
    sender, receiver = endpoints(scheme, pair)
    rx = []
    for _ in range(messages):
        mr = pair.ctx_b.mr_reg(size, data=bytearray(size))
        rx.append(receiver.post_receive(mr, size))
        sender.write(size, bytes(size))
    return pair, receiver, rx


@pytest.mark.parametrize("scheme", ["sr", "gbn", "ec", "sampling"])
def test_serving_empties_once_every_grace_is_over(scheme):
    """A receiver forgets each message when its grace re-signal ends: it
    used to keep one ``_serving`` entry per message for its lifetime."""
    pair, receiver, rx = _drain(scheme)
    pair.sim.run()
    assert all(t.finish_time is not None for t in rx)
    assert receiver._serving == {}


@pytest.mark.parametrize("scheme", ["sr", "ec", "sampling"])
@pytest.mark.parametrize("in_grace", [True, False], ids=["in_grace", "after"])
def test_a_finished_message_is_answered_through_grace_and_after(scheme, in_grace):
    """A resume request for a message the receiver completed gets its
    completion signal, whether it arrives while the receiver still
    re-signals (grace, 10 RTTs) or 20 RTTs later, when only the
    receiver's posts remember the message."""
    from repro.reliability.messages import Done, ResumeReq
    from repro.reliability.sr import FINISHED

    pair, receiver, (ticket,) = _drain(scheme, messages=1)
    rtt = pair.channel.rtt
    delay = 0.0 if in_grace else 20 * rtt
    heard = []  # what the receiver sends from the request on (2 % loss)

    def request() -> None:
        send = pair.ctrl_b.send
        pair.ctrl_b.send = lambda msg: heard.append(msg) or send(msg)
        pair.ctrl_a.send(ResumeReq(msg_seq=ticket.seq, attempt=1))

    ticket.done.callbacks.append(lambda _ev: pair.sim.call_in(delay, request))
    pair.sim.run()
    granted = pair.sim.telemetry.metrics.value("recovery.dc-b.resumes_granted")
    assert granted == 1
    assert ticket.resumptions == (1 if in_grace else 0)
    final = {
        "sr": Ack(ticket.seq, FINISHED), "ec": EcAck(ticket.seq),
        "sampling": Done(ticket.seq),
    }[scheme]
    assert final in heard


@pytest.mark.parametrize("scheme", ["sr", "ec", "sampling"])
def test_a_message_given_up_is_not_answered(scheme):
    """An abandoned receive is given up: a later resume request for it
    gets no answer (nor does a seq the receiver never posted)."""
    from repro.reliability.messages import ResumeReq

    pair, receiver, (ticket,) = _drain(scheme, messages=1)
    receiver.abandon(ticket)
    for seq in (ticket.seq, 99):
        pair.ctrl_a.send(ResumeReq(msg_seq=seq, attempt=1))
    pair.sim.run()
    assert pair.sim.telemetry.metrics.value("recovery.dc-b.resumes_granted") == 0
    assert not ticket.done.ok and receiver._serving == {}


def test_receivers_sharing_a_qp_answer_only_their_own_messages():
    """Adaptive's SR and EC receivers share one QP: a resume request for
    the EC message, after both messages finished, is answered with an
    ``EcAck`` by the EC receiver alone."""
    from repro.reliability.ec import EcConfig
    from repro.reliability.messages import ResumeReq
    from repro.stack import endpoints
    from tests.conftest import make_sdr_pair

    pair = make_sdr_pair(seed=3, inflight=64)
    sender, receiver = endpoints(
        "adaptive", pair, ec_config=EcConfig(k=8, m=4)
    )
    size = 256 * 1024
    tickets = []
    for estimate in (0.0, 0.05):  # the advisor's pick: SR, then EC
        receiver.estimator.estimate = estimate
        tickets.append(receiver.post_receive(pair.ctx_b.mr_reg(size), size))
        pair.sim.run(sender.write(size).done)
    pair.sim.run()
    assert receiver.protocol_history == ["sr", "ec"]
    ec_seq = tickets[1].seq
    assert receiver.sr._posted == [[0, 1]] and receiver.ec._posted[0][0] == ec_seq
    heard = []
    send = pair.ctrl_b.send
    pair.ctrl_b.send = lambda msg: heard.append(msg) or send(msg)
    pair.ctrl_a.send(ResumeReq(msg_seq=ec_seq, attempt=1))
    pair.sim.run()
    assert heard == [EcAck(ec_seq)]
