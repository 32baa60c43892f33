"""Repeated SR ACKs reuse their wire bytes and their decoded message.

A quiet SR poll (no chunk landed and no CE mark since the last ACK) sends
the last ACK's wire bytes again, and the control path hands a datagram
equal to the previous one over as the message it already decoded.  Both
shortcuts are checked against the work they skip, on every ACK of a run:
the datagram a poll sends must equal a fresh ``Ack(...).pack()`` of that
poll (the encoder as it was before the reuse, kept below), and the message
a datagram yields must equal ``decode_message`` of its bytes.  A grace
re-ACK (the same ``Ack(seq, cumulative=nchunks)`` every time) is packed once
per receive and resent; a differential against the per-resend pack shows
the same datagrams, ``acks_sent`` and control bytes.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cc.incast import run_incast
from repro.common.units import KiB
from repro.reliability.base import MIN_CTRL_BYTES, ControlPath
from repro.reliability.messages import Ack, decode_message
from repro.reliability.sr import SrReceiver
from repro.stack import endpoints

from tests.conftest import make_sdr_pair
from tests.reliability.conftest import random_payload


def _fresh_ack(rh, final: bool, window_bytes: int | None, mtu: int) -> bytes:
    """The wire bytes of this poll's ACK, packed from scratch.  The window
    is as much as fits the MTU after the ACK's 17 fixed bytes (and the 9 B
    ECN trailer when marks are echoed), and no more than ``window_bytes``."""
    bitmap = rh.bitmap()
    cumulative = bitmap.cumulative()
    marked = rh.ce_packets - rh.ce_echoed
    seen = rh.packets_seen - rh.seen_echoed if marked > 0 else 0
    room = mtu - 17 - (9 if marked > 0 else 0)
    if window_bytes is not None:
        room = min(room, window_bytes)
    window = b""
    if not final and cumulative < rh.nchunks:
        window = bitmap.to_bytes(start_bit=cumulative)[:room]
    ack = Ack(rh.seq, cumulative, cumulative // 8 * 8, window, max(marked, 0), seen)
    return ack.pack().ljust(MIN_CTRL_BYTES, b"\0")


@pytest.fixture
def tally(monkeypatch):
    """Check every SR poll ACK and every control datagram of the run."""
    tally = Counter()
    sent: list[bytes] = []
    send_bytes = ControlPath.send_bytes
    send_ack = SrReceiver._send_ack
    on_datagram = ControlPath._on_datagram

    def recording_send_bytes(self, raw):
        sent.append(raw)
        return send_bytes(self, raw)

    def checked_send_ack(self, rh, last=None, *, final=False):
        want = _fresh_ack(rh, final, self.config.ack_window_bytes, self.ctrl.qp.mtu)
        tally["ecn_echoes"] += rh.ce_packets > rh.ce_echoed
        before = None if last is None else last[1]
        send_ack(self, rh, last, final=final)
        raw = sent[-1]
        assert raw.ljust(MIN_CTRL_BYTES, b"\0") == want
        tally["mtu_full"] += len(raw) == self.ctrl.qp.mtu
        tally["reused" if raw is before else "packed"] += 1

    def checked_on_datagram(self, payload, immediate, src_qpn):
        hit = payload is not None and payload == self._last_raw
        on_datagram(self, payload, immediate, src_qpn)
        if payload is not None:
            assert self._last_msg == decode_message(bytes(payload))
            tally["memoised" if hit else "decoded"] += 1

    monkeypatch.setattr(ControlPath, "send_bytes", recording_send_bytes)
    monkeypatch.setattr(SrReceiver, "_send_ack", checked_send_ack)
    monkeypatch.setattr(ControlPath, "_on_datagram", checked_on_datagram)
    return tally


def test_incast_polls_reuse_what_a_fresh_encode_rebuilds(tally):
    result = run_incast(senders=8, cc="swift", messages_per_sender=6)
    assert result.delivered_messages == 48
    assert tally["reused"] > tally["packed"] > tally["ecn_echoes"] > 0
    assert tally["memoised"] > 0 and tally["decoded"] > 0


def test_lossy_nack_and_ecn_polls_reuse_what_a_fresh_encode_rebuilds(tally):
    pair = make_sdr_pair(drop=0.02, ecn_threshold_bytes=4 * KiB, seed=3)
    sender, receiver = endpoints("sr_nack", pair)
    size = 512 * KiB
    buf = bytearray(size)
    mr = pair.ctx_b.mr_reg(size, data=buf)
    for seed in range(6):
        payload = random_payload(size, seed)
        rx = receiver.post_receive(mr, size)
        pair.sim.run(sender.write(size, payload).done)
        assert rx.done.ok and bytes(buf) == payload
    metrics = pair.sim.telemetry.metrics
    assert receiver._m_nacks_sent.value > 0
    assert sum(
        metrics.value(n) for n in metrics.names("net") if n.endswith("ecn_marked")
    ) > 0
    assert tally["reused"] > 0 and tally["packed"] > tally["ecn_echoes"] > 0
    assert tally["memoised"] > 0 and tally["decoded"] > 0


def _packed_final_ack(self, rh, wire):
    """``SrReceiver._send_final_ack`` before the reuse: a pack per re-ACK."""
    self.ctrl.send(Ack(msg_seq=rh.seq, cumulative=rh.nchunks))
    self._m_acks_sent.inc()


def _incast_control(monkeypatch, final_ack):
    """Every control datagram, ``acks_sent`` and reverse-path bytes of a
    swift incast, with ``final_ack`` as the grace re-ACK."""
    sent: list[bytes] = []
    reused = Counter()
    send_bytes = ControlPath.send_bytes

    def recording_send_bytes(self, raw):
        sent.append(send_bytes(self, raw))
        return sent[-1]

    def counted_final_ack(self, rh, wire):
        reused[bool(wire)] += 1
        final_ack(self, rh, wire)

    with monkeypatch.context() as m:
        m.setattr(ControlPath, "send_bytes", recording_send_bytes)
        m.setattr(SrReceiver, "_send_final_ack", counted_final_ack)
        result = run_incast(senders=8, cc="swift", messages_per_sender=6)
    assert result.delivered_messages == 48
    metrics = result.sim.telemetry.metrics
    acks = sum(
        metrics.value(n) for n in metrics.names("sr") if n.endswith(".acks_sent")
    )
    ctrl_bytes = sum(
        metrics.value(n) for n in metrics.names("net")
        if n.endswith(".rev.bytes_offered")
    )
    return sent, acks, ctrl_bytes, reused


def test_grace_reacks_resend_the_bytes_a_fresh_pack_builds(monkeypatch):
    new = _incast_control(monkeypatch, SrReceiver._send_final_ack)
    ref = _incast_control(monkeypatch, _packed_final_ack)
    assert new[:3] == ref[:3]
    # One pack per receive (48), its bytes resent by every later re-ACK.
    assert new[3][False] == 48 and new[3][True] > 48
    assert new[3].total() == ref[3].total()


def test_small_mtu_polls_fit_what_a_fresh_encode_rebuilds(tally):
    """At a 256 B MTU a 2,048-chunk window does not fit: the ACKs the
    control path trims to the MTU are the ones the reference packs."""
    pair = make_sdr_pair(drop=0.01, mtu=256, chunk=256, seed=3)
    sender, receiver = endpoints("sr", pair)
    size = 2048 * 256
    ticket = sender.write(size)
    receiver.post_receive(pair.ctx_b.mr_reg(size), size)
    pair.sim.run(ticket.done)
    assert not ticket.failed
    assert tally["mtu_full"] > 0 and tally["packed"] > 0 and tally["reused"] > 0
