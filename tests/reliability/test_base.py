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
    assert sum(1 for cq in handled if cq.total_posted > 2) >= 2
    # ...and every completion was consumed where its datagram was handled.
    assert [cq.name for cq in created if len(cq)] == []


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


@pytest.mark.parametrize("scheme", ["sr", "ec"])
@pytest.mark.parametrize("in_grace", [True, False], ids=["in_grace", "after"])
def test_resume_request_is_granted_only_through_grace(scheme, in_grace):
    """A resume request arriving while the receiver still re-signals its
    completion is adopted; one arriving after grace finds nothing."""
    from repro.reliability.messages import ResumeReq

    pair, receiver, (ticket,) = _drain(scheme, messages=1)
    rtt = pair.channel.rtt
    # Sent as the receive completes, it lands half an RTT into grace
    # (10 RTTs); sent 20 RTTs later, after it.
    delay = 0.0 if in_grace else 20 * rtt
    ticket.done.callbacks.append(
        lambda _ev: pair.sim.call_in(
            delay, pair.ctrl_a.send, ResumeReq(msg_seq=ticket.seq, attempt=1)
        )
    )
    pair.sim.run()
    granted = pair.sim.telemetry.metrics.value("recovery.dc-b.resumes_granted")
    assert granted == (1 if in_grace else 0)
    assert ticket.resumptions == (1 if in_grace else 0)
