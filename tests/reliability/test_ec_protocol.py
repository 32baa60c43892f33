"""Erasure Coding protocol end-to-end (parity recovery, FTO, fallback)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.common.errors import (
    ConfigError,
    DecodeFailure,
    DeliveryError,
    ProtocolError,
)
from repro.common.units import KiB, MiB
from repro.ec import SegmentLayout
from repro.reliability.ec import EcConfig
from repro.reliability.messages import EcNack

from tests.reliability.conftest import make_ec, random_payload


class TestLossless:
    def test_completes_without_fallback(self):
        pair, sender, receiver = make_ec()
        size = 256 * KiB
        mr = pair.ctx_b.mr_reg(size)
        receiver.post_receive(mr, size)
        ticket = sender.write(size)
        pair.sim.run(ticket.done)
        assert not ticket.fell_back_to_sr
        assert ticket.retransmitted_chunks == 0
        assert receiver._m_submessages_decoded.value == 0

    def test_data_integrity(self):
        pair, sender, receiver = make_ec()
        size = 192 * KiB
        payload = random_payload(size, 1)
        buf = bytearray(size)
        mr = pair.ctx_b.mr_reg(size, data=buf)
        receiver.post_receive(mr, size)
        ticket = sender.write(size, payload)
        pair.sim.run(ticket.done)
        assert bytes(buf) == payload

    def test_tail_submessage_smaller_than_one_chunk(self):
        """Regression (found by fuzzing): a message whose final submessage
        holds less than one full chunk must encode/decode cleanly."""
        pair, sender, receiver = make_ec(drop=0.02, seed=3)
        size = 65 * KiB  # chunks of 8 KiB -> 9 chunks; k=8 -> tail sub = 1 KiB
        payload = random_payload(size, 9)
        buf = bytearray(size)
        mr = pair.ctx_b.mr_reg(size, data=buf)
        receiver.post_receive(mr, size)
        ticket = sender.write(size, payload)
        pair.sim.run(ticket.done)
        assert bytes(buf) == payload

    def test_parity_overhead_on_wire(self):
        """EC ships ~k/m extra bytes even with no losses (Figure 3a tail)."""
        pair, sender, receiver = make_ec(config=EcConfig(k=8, m=2))
        size = 512 * KiB
        mr = pair.ctx_b.mr_reg(size)
        receiver.post_receive(mr, size)
        ticket = sender.write(size)
        pair.sim.run(ticket.done)
        sent = pair.fabric.links[("dc-a", "dc-b")].forward.stats.bytes_offered
        assert sent >= size * 1.25 * 0.95  # data + 25% parity (minus ctrl)


class TestRecovery:
    def test_drops_recovered_in_place_without_retransmission(self):
        """Moderate loss: parity absorbs the drops; no chunks re-sent."""
        pair, sender, receiver = make_ec(drop=0.02, seed=7)
        size = 1 * MiB
        payload = random_payload(size, 2)
        buf = bytearray(size)
        mr = pair.ctx_b.mr_reg(size, data=buf)
        receiver.post_receive(mr, size)
        ticket = sender.write(size, payload)
        pair.sim.run(ticket.done)
        dropped = pair.fabric.links[("dc-a", "dc-b")].forward.stats.packets_dropped
        assert dropped > 0
        assert bytes(buf) == payload
        assert receiver._m_submessages_decoded.value > 0
        assert not ticket.fell_back_to_sr

    def test_decode_writes_back_only_the_erased_chunks_of_its_message(self):
        """A decoded short last segment lands at ``mr_offset`` inside a
        larger MR: the erased 1000 B tail chunk is written, clipped at the
        message's end, and the bytes around the message are untouched."""
        pair, sender, receiver = make_ec(drop=0.05, seed=36)
        length = 18 * 8 * KiB + 1000  # 19 chunks: segments of 8, 8 and 3
        before, after = 3000, 2000
        decoded = []
        decode_now = receiver._decode_now

        def record(rx, s, data_present, *args):
            decoded.append((s, np.flatnonzero(~data_present).tolist()))
            decode_now(rx, s, data_present, *args)

        receiver._decode_now = record
        payload = random_payload(length, 36)
        buf = bytearray(b"\xa5" * (before + length + after))
        mr = pair.ctx_b.mr_reg(len(buf), data=buf)
        receiver.post_receive(mr, length, mr_offset=before)
        ticket = sender.write(length, payload)
        pair.sim.run(ticket.done)
        assert (2, [2]) in decoded and not ticket.fell_back_to_sr
        assert bytes(buf[before : before + length]) == payload
        assert buf[:before] == b"\xa5" * before
        assert buf[before + length :] == b"\xa5" * after

    def test_a_decode_that_fails_after_recoverable_said_yes_is_a_protocol_error(self):
        """The codec's ``recoverable`` and its decode must agree: a segment
        judged recoverable whose decode fails is a codec fault, raised as
        one, never a silently corrupt buffer."""
        pair, sender, receiver = make_ec(drop=0.02, seed=7)

        def fail(layout, s, chunks):
            raise DecodeFailure("codec disagrees")

        receiver.code.decode_rows = fail
        size = 1 * MiB
        mr = pair.ctx_b.mr_reg(size, data=bytearray(size))
        receiver.post_receive(mr, size)
        ticket = sender.write(size, random_payload(size, 2))
        with pytest.raises(ProtocolError, match="marked recoverable but decode failed"):
            pair.sim.run(ticket.done)

    def test_xor_codec_end_to_end(self):
        pair, sender, receiver = make_ec(
            drop=0.01, seed=8, config=EcConfig(codec="xor", k=8, m=4)
        )
        size = 1 * MiB
        payload = random_payload(size, 3)
        buf = bytearray(size)
        mr = pair.ctx_b.mr_reg(size, data=buf)
        receiver.post_receive(mr, size)
        ticket = sender.write(size, payload)
        pair.sim.run(ticket.done)
        assert bytes(buf) == payload


class TestFallback:
    def test_heavy_loss_falls_back_to_sr(self):
        """Drops beyond parity tolerance trigger FTO + selective repeat."""
        pair, sender, receiver = make_ec(
            drop=0.3, seed=11, config=EcConfig(codec="mds", k=8, m=2)
        )
        size = 512 * KiB
        payload = random_payload(size, 4)
        buf = bytearray(size)
        mr = pair.ctx_b.mr_reg(size, data=buf)
        receiver.post_receive(mr, size)
        ticket = sender.write(size, payload)
        pair.sim.run(ticket.done)
        assert ticket.fell_back_to_sr
        assert ticket.retransmitted_chunks > 0
        assert receiver._m_nacks_sent.value > 0
        assert bytes(buf) == payload

    def test_fallback_time_includes_fto(self):
        pair, sender, receiver = make_ec(
            drop=0.3, seed=12, config=EcConfig(codec="mds", k=8, m=2)
        )
        size = 256 * KiB
        mr = pair.ctx_b.mr_reg(size)
        receiver.post_receive(mr, size)
        ticket = sender.write(size)
        pair.sim.run(ticket.done)
        assert ticket.fell_back_to_sr
        # Completion must exceed base send + FTO slack (beta RTT).
        base = size * 1.5 / pair.channel.bytes_per_second
        assert ticket.completion_time > base + pair.channel.rtt

    def test_a_nack_for_chunks_past_the_write_is_ignored(self):
        """The receiver NACKs by its own layout: a receive posted longer
        than the write asks for chunks the write never had.  The sender
        skips them, and the write ends by its global timeout."""
        pair, sender, receiver = make_ec()
        mr = pair.ctx_b.mr_reg(256 * KiB)
        receiver.post_receive(mr, 256 * KiB)
        ticket = sender.write(128 * KiB)
        with pytest.raises(DeliveryError, match="no ACK within the global timeout"):
            pair.sim.run(ticket.done)
        assert ticket.failed
        assert ticket.nacks_received > 0
        assert ticket.retransmitted_chunks == 0


def _nack(pending: int, k: int) -> EcNack:
    """The NACK a receiver on a 4 KiB MTU sends when the first ``pending``
    (k, 1)-segments each miss every data chunk."""
    _, _, receiver = make_ec()
    layout = SegmentLayout(length=2048 * k, chunk_bytes=1, k=k, m=1)
    rx = SimpleNamespace(
        ticket=SimpleNamespace(seq=7), layout=layout,
        data_present=lambda s: np.zeros(layout.chunk_range(s)[1], dtype=bool),
    )
    sent = []
    send = receiver.ctrl.send
    receiver.ctrl.send = lambda msg: sent.append(send(msg)) or sent[-1]
    receiver._send_nack(rx, list(range(pending)))
    ((nack, _),) = sent  # as the control path fitted it to the MTU
    return nack


class TestNackSize:
    """A packed NACK is 13 B of header and counts plus 4 B per failed
    submessage and per missing chunk; it must fit the 4 KiB path MTU."""

    def test_a_nack_that_fits_is_unchanged(self):
        # 4 failed + 1016 chunks (the old cap): 13 + 4 * 1020 = 4093 B.
        nack = _nack(4, k=512)
        assert nack == EcNack(7, (0, 1, 2, 3), tuple(range(1016)))
        assert len(nack.pack()) == 4093

    def test_one_more_failed_submessage_trims_a_chunk(self):
        # 5 failed + 1016 chunks would be 4097 B.
        nack = _nack(5, k=512)
        assert nack == EcNack(7, (0, 1, 2, 3, 4), tuple(range(1015)))
        assert len(nack.pack()) == 4093

    def test_more_failed_submessages_than_fit_still_name_a_chunk(self):
        nack = _nack(1100, k=1)
        assert nack.failed_submessages == tuple(range(1019))
        assert nack.missing_chunks == (0,)
        assert len(nack.pack()) == 4093

    def test_heavy_loss_on_many_segments_completes_within_the_mtu(self):
        """Regression: 64 failed submessages plus the chunk cap made a
        4,333 B NACK, which the control path refused mid-simulation."""
        size = 32 * MiB
        pair, sender, receiver = make_ec(
            drop=0.3, seed=1, chunk=16 * KiB, max_message=size, inflight=128,
            config=EcConfig(k=32, m=8),
        )
        nacks = []
        send = receiver.ctrl.send
        receiver.ctrl.send = lambda msg: nacks.append(send(msg)) or nacks[-1]
        payload = random_payload(size, 1)
        buf = bytearray(size)
        rx = receiver.post_receive(pair.ctx_b.mr_reg(size, data=buf), size)
        pair.sim.run(sender.write(size, payload).done)
        assert rx.done.ok and bytes(buf) == payload
        nacks = [m for m, _ in nacks if isinstance(m, EcNack)]
        assert len(nacks) > 1
        assert max(len(m.failed_submessages) for m in nacks) == 64
        assert all(len(m.pack()) <= 4 * KiB for m in nacks)


class TestConfiguration:
    def test_receive_needs_enough_sdr_slots(self):
        pair, sender, receiver = make_ec(inflight=4)
        # 1 MiB / 8 KiB chunks = 128 chunks; k=8 -> 16 submessages -> 32 slots.
        mr = pair.ctx_b.mr_reg(1 * MiB)
        with pytest.raises(ConfigError):
            receiver.post_receive(mr, 1 * MiB)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            EcConfig(k=0)
        with pytest.raises(ConfigError):
            EcConfig(encode_bps=0)

    def test_encode_budget_delays_parity(self):
        """A slow encoder throttles parity injection but not correctness."""
        slow = EcConfig(k=8, m=4, encode_bps=2e9)  # ~2 Gbit/s encode
        pair, sender, receiver = make_ec(config=slow)
        size = 256 * KiB
        mr = pair.ctx_b.mr_reg(size)
        receiver.post_receive(mr, size)
        ticket = sender.write(size)
        pair.sim.run(ticket.done)
        assert not ticket.failed
        # Encoding all data at 2 Gbit/s takes longer than wire injection at
        # 100 Gbit/s, so completion is encode-bound.
        assert ticket.completion_time > size * 8 / 2e9 * 0.9
