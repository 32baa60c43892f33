"""Control messages sized by the path MTU, end to end.

The selective ACK ships "a portion of the bitmap (as much as fits in the
ACK payload), starting from the cumulative ACK" (Section 4.1.1), and the
answer to a resume request must reach the sender whatever the message
size.  Each case below is a run whose control traffic outgrows a
fixed-size encoding: a window narrower than the path allows (spurious
retransmits), an answer carrying the whole bitmap, a default window
wider than a small MTU.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.common.bitmap import Bitmap
from repro.common.units import KiB, MiB
from repro.reliability.sr import SrConfig
from repro.stack import endpoints

from tests.conftest import make_sdr_pair
from tests.recovery.test_resume import data_blackout
from tests.reliability.conftest import random_payload


def _write(pair, nchunks: int, chunk: int, config=None, payload=None):
    sender, receiver = endpoints("sr", pair, config)
    size = nchunks * chunk
    buf = bytearray(size)
    receiver.post_receive(pair.ctx_b.mr_reg(size, data=buf), size)
    ticket = sender.write(size, payload)
    pair.sim.run(ticket.done)
    return ticket, buf


def test_ack_window_as_wide_as_the_mtu_retransmits_only_drops():
    """8,192 chunks of 4 KiB at a 4 KiB MTU: a 512 B window covers half
    the message, so every chunk past it waits out an RTO whenever a drop
    holds the cumulative ACK back.  A window that fits the MTU covers all
    of it, and SR retransmits only what the link dropped."""
    pair = make_sdr_pair(
        drop=1e-3, distance_km=1000.0, chunk=4 * KiB, max_message=32 * MiB,
        seed=3,
    )
    ticket, _ = _write(pair, 8192, 4 * KiB)
    dropped = pair.fabric.links[("dc-a", "dc-b")].forward.stats.packets_dropped
    assert not ticket.failed
    assert 0 < ticket.retransmitted_chunks <= dropped


def test_resume_grant_of_a_large_message_fits_the_mtu():
    """8,192 chunks of 1 KiB at a 1 KiB MTU, 1000 km: a data blackout
    outlives the retry budget, the sender resumes, and the receiver's
    answering ACK must fit one datagram (the whole packed bitmap is
    1,024 B on its own), so its window is trimmed and the chunks past it
    are resent as missing."""

    def build(faults=None):
        return make_sdr_pair(
            mtu=1 * KiB, chunk=1 * KiB, max_message=8 * MiB, seed=0,
            distance_km=1000.0, faults=faults,
        )

    rtt = build().channel.rtt
    pair = build(data_blackout(rtt, start=0.3 * rtt, end_rtts=2.0))
    cfg = SrConfig(max_message_retransmits=8, max_resumptions=2)
    payload = random_payload(8 * MiB)
    ticket, buf = _write(pair, 8192, 1 * KiB, cfg, payload)
    assert not ticket.failed
    assert ticket.resumptions == 1
    assert bytes(buf) == payload


def test_default_sr_completes_at_a_256_byte_mtu():
    pair = make_sdr_pair(
        drop=1e-3, mtu=256, chunk=256, max_message=1 * MiB, seed=3
    )
    ticket, _ = _write(pair, 4096, 256)
    assert not ticket.failed


def test_gap_nack_holds_off_only_the_chunks_it_named():
    """At a 256 B MTU one gap NACK names 61 chunks; the holdoff covers
    those, so the next poll names the next 61 instead of nothing."""
    pair = make_sdr_pair(mtu=256, chunk=256, max_message=1 * MiB)
    _, receiver = endpoints("sr_nack", pair)
    rh = SimpleNamespace(seq=0, bitmap=lambda: Bitmap.from_indices(300, [299]))
    sent = []
    send = receiver.ctrl.send
    receiver.ctrl.send = lambda msg: sent.append(send(msg)) or sent[-1]
    last_nack = np.full(300, -np.inf)
    receiver._send_gap_nacks(rh, last_nack)
    receiver._send_gap_nacks(rh, last_nack)
    (first, _), (second, _) = sent
    assert first.chunks == tuple(range(61))
    assert second.chunks == tuple(range(61, 122))
