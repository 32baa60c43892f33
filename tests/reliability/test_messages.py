"""Control-message wire formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitmap import Bitmap, mask_bits
from repro.common.errors import ProtocolError
from repro.reliability.messages import (
    Ack,
    Done,
    EcAck,
    EcNack,
    Provision,
    RepairReq,
    ResumeReq,
    SrNack,
    decode_message,
)


class TestRoundtrips:
    def test_ack(self):
        ack = Ack(msg_seq=7, cumulative=12, window_start=8, window=b"\xf0\x01")
        decoded = decode_message(ack.pack())
        assert decoded == ack

    def test_sr_nack(self):
        nack = SrNack(msg_seq=3, chunks=(1, 5, 9))
        assert decode_message(nack.pack()) == nack

    def test_sr_nack_empty(self):
        nack = SrNack(msg_seq=0, chunks=())
        assert decode_message(nack.pack()) == nack

    def test_ec_ack(self):
        assert decode_message(EcAck(msg_seq=9).pack()) == EcAck(msg_seq=9)

    def test_ec_nack(self):
        nack = EcNack(
            msg_seq=2, failed_submessages=(0, 3), missing_chunks=(1, 97, 98)
        )
        assert decode_message(nack.pack()) == nack

    def test_done(self):
        assert decode_message(Done(msg_seq=4).pack()) == Done(msg_seq=4)

    def test_resume_req(self):
        req = ResumeReq(msg_seq=5, attempt=2)
        assert decode_message(req.pack()) == req

    def test_the_retired_resume_grant_tag_is_unknown(self):
        # Type 8 carried a resumption grant naming a fresh slot.
        with pytest.raises(ProtocolError, match="unknown control message type 8"):
            decode_message(bytes([8, 5, 0, 0, 0]) + bytes(20))

    def test_trailing_padding_tolerated(self):
        # ControlPath pads datagrams to a minimum wire size.
        raw = EcAck(msg_seq=1).pack() + b"\x00" * 50
        assert decode_message(raw) == EcAck(msg_seq=1)

    def test_ack_ecn_trailer(self):
        ack = Ack(
            msg_seq=7, cumulative=12, window_start=8, window=b"\xf0",
            ecn_marked=3, ecn_seen=17,
        )
        decoded = decode_message(ack.pack())
        assert decoded == ack
        assert decoded.ecn_marked == 3
        assert decoded.ecn_seen == 17

    def test_ack_ecn_trailer_survives_zero_padding(self):
        ack = Ack(msg_seq=2, cumulative=1, ecn_marked=5, ecn_seen=5)
        assert decode_message(ack.pack() + b"\x00" * 40) == ack

    def test_mark_free_ack_keeps_pre_cc_encoding(self):
        """(0, 0) omits the trailer: the byte-identity guarantee on the wire."""
        ack = Ack(msg_seq=7, cumulative=12, window_start=8, window=b"\xf0")
        raw = ack.pack()
        assert raw == Ack(msg_seq=7, cumulative=12, window_start=8,
                          window=b"\xf0", ecn_marked=0, ecn_seen=0).pack()
        assert len(raw) == len(
            Ack(msg_seq=7, cumulative=12, window_start=8, window=b"\xf0",
                ecn_marked=1, ecn_seen=1).pack()
        ) - Ack._ECN.size
        decoded = decode_message(raw)
        assert decoded.ecn_marked == 0 and decoded.ecn_seen == 0


class TestValidation:
    def test_too_short(self):
        with pytest.raises(ProtocolError):
            decode_message(b"\x01")

    def test_unknown_type(self):
        with pytest.raises(ProtocolError):
            decode_message(b"\xee" + b"\x00" * 10)

    def test_truncated_ack_window(self):
        ack = Ack(msg_seq=1, cumulative=0, window_start=0, window=b"\xff" * 8)
        with pytest.raises(ProtocolError):
            decode_message(ack.pack()[:-4])

    @pytest.mark.parametrize("raw", [
        bytes([2, 0, 0, 0, 0]) + b"\xff" * 4,  # SR NACK counting 2**32 - 1
        bytes([4, 0, 0, 0, 0]) + b"\x01\x00\x00\x00",  # EC NACK, no counts
        bytes([7, 0, 0, 0, 0]),  # resume request, no attempt
        bytes([8, 0, 0, 0, 0]) + b"\x00" * 19,  # grant one byte short
        bytes([9, 0, 0, 0, 0]) + b"\x00" * 8 + b"\x05\x00\x00\x00",
    ])
    def test_truncated_bodies(self, raw):
        with pytest.raises(ProtocolError):
            decode_message(raw)


class TestAckedChunks:
    def test_cumulative_only(self):
        ack = Ack(msg_seq=0, cumulative=5)
        assert ack.acked_chunks(10) == {0, 1, 2, 3, 4}

    def test_cumulative_clamped_to_nchunks(self):
        ack = Ack(msg_seq=0, cumulative=100)
        assert ack.acked_chunks(4) == {0, 1, 2, 3}

    def test_window_bits(self):
        # Window byte 0 covers chunks 8..15; bits 1 and 3 -> 9 and 11.
        ack = Ack(msg_seq=0, cumulative=8, window_start=8, window=b"\x0a")
        assert ack.acked_chunks(16) == set(range(8)) | {9, 11}

    def test_window_bits_beyond_nchunks_ignored(self):
        ack = Ack(msg_seq=0, cumulative=0, window_start=0, window=b"\xff")
        assert ack.acked_chunks(3) == {0, 1, 2}


@settings(max_examples=80)
@given(nbits=st.integers(1, 128), data=st.data())
def test_property_ack_reflects_receiver_bitmap(nbits, data):
    """An ACK built the way SrReceiver builds it reports exactly the set
    bits reachable through cumulative + window encoding."""
    indices = data.draw(st.lists(st.integers(0, nbits - 1), max_size=nbits))
    bm = Bitmap.from_indices(nbits, indices)
    cumulative = bm.cumulative()
    window = bm.to_bytes(start_bit=cumulative, max_bytes=64)
    ack = Ack(
        msg_seq=0,
        cumulative=cumulative,
        window_start=(cumulative // 8) * 8,
        window=window,
    )
    acked = ack.acked_chunks(nbits)
    truly_set = set(bm.set_indices().tolist())
    # Everything acked is truly received (no false positives)...
    assert acked <= truly_set | set(range(cumulative))
    # ...and with a 64-byte window covering 512 bits >= nbits, everything
    # received is acked.
    assert acked == truly_set


def _acked_chunks_reference(ack: Ack, nchunks: int) -> set[int]:
    """``Ack.acked_chunks`` as it stood before the integer mask: kept as
    the reference the mask path is held to."""
    acked = set(range(min(ack.cumulative, nchunks)))
    for byte_i, byte in enumerate(ack.window):
        if not byte:
            continue
        base = ack.window_start + byte_i * 8
        for bit in range(8):
            if byte >> bit & 1:
                idx = base + bit
                if idx < nchunks:
                    acked.add(idx)
    return acked


@settings(max_examples=300)
@given(
    cumulative=st.integers(0, 300),
    window_start=st.integers(0, 300) | st.just(2**32 - 1),
    window=st.binary(max_size=40),
    nchunks=st.integers(1, 260),
    outstanding=st.integers(0, 2**260 - 1),
)
def test_acked_mask_matches_the_set_building_reference(
    cumulative, window_start, window, nchunks, outstanding
):
    ack = Ack(1, cumulative, window_start, window)
    want = _acked_chunks_reference(ack, nchunks)
    mask = ack.acked_mask(nchunks)
    assert set(mask_bits(mask)) == ack.acked_chunks(nchunks) == want
    assert mask >> nchunks == 0
    # What the SR sender does with it: only the chunks this ACK adds to
    # what was outstanding are visited, in ascending order.
    outstanding &= (1 << nchunks) - 1
    newly = list(mask_bits(mask & outstanding))
    assert newly == sorted(i for i in want if outstanding >> i & 1)


@settings(max_examples=300)
@given(
    window_start=st.integers(0, 300) | st.just(2**32 - 1),
    missing=st.binary(max_size=40),
    nchunks=st.integers(0, 260),
)
def test_repair_missing_chunks_are_the_window_bits_below_nchunks(
    window_start, missing, nchunks
):
    req = decode_message(RepairReq(1, 0, window_start, missing).pack())

    def asked(i):  # bit i of the window, read byte by byte
        off = i - window_start
        return 0 <= off < 8 * len(missing) and missing[off // 8] >> off % 8 & 1

    assert req.missing_chunks(nchunks) == [i for i in range(nchunks) if asked(i)]


_IDX = st.integers(0, 2**32 - 1)


@st.composite
def variable_messages(draw):
    """A variable-length control message of random content, sized to
    overflow small MTUs now and then."""
    seq = draw(_IDX)
    window = draw(st.binary(max_size=1200) | st.binary(min_size=9000, max_size=9400))
    chunks = st.lists(_IDX, max_size=40).map(tuple) | st.integers(0, 2400).map(
        lambda n: tuple(range(n))
    )
    kind = draw(st.sampled_from(["ack", "sr_nack", "ec_nack", "repair"]))
    if kind == "ack":
        marked = draw(st.integers(0, 5))  # (0, 0): no ECN trailer
        seen = marked + 3 if marked else 0
        return Ack(seq, draw(_IDX), draw(_IDX), window, marked, seen)
    if kind == "sr_nack":
        return SrNack(seq, draw(chunks))
    if kind == "ec_nack":
        return EcNack(seq, draw(chunks), draw(chunks))
    return RepairReq(seq, draw(_IDX), draw(_IDX), window)


def _kept(msg) -> tuple:
    """What ``fit`` may trim, in its trim order (the last item goes first)."""
    if isinstance(msg, EcNack):
        return msg.failed_submessages, msg.missing_chunks
    if isinstance(msg, SrNack):
        return (msg.chunks,)
    return (msg.missing if isinstance(msg, RepairReq) else msg.window,)


@settings(max_examples=200, deadline=None)
@given(msg=variable_messages(), mtu=st.integers(256, 9216))
def test_fit_packs_to_the_mtu_keeping_a_prefix_in_trim_order(msg, mtu):
    fitted = msg.fit(mtu)
    raw = fitted.pack()
    assert len(raw) <= mtu
    assert decode_message(raw) == fitted
    # Only the trimmed field changes, and only at its tail.
    fields = [f for f in msg._fields if not isinstance(getattr(msg, f), (bytes, tuple))]
    assert [getattr(fitted, f) for f in fields] == [getattr(msg, f) for f in fields]
    before, after = _kept(msg), _kept(fitted)
    assert all(a == b[: len(a)] for a, b in zip(after, before))
    # The declared sizes are the packed sizes (+9 B for an ECN trailer).
    trailer = 9 if isinstance(msg, Ack) and msg.ecn_marked else 0
    for m, lists in ((msg, before), (fitted, after)):
        entries = sum(map(len, lists))
        assert len(m.pack()) == m.FIXED_BYTES + m.ENTRY_BYTES * entries + trailer
    if len(msg.pack()) <= mtu:
        assert fitted is msg  # a message that fits goes out as it is
        return
    # Trimmed: as much as fits (one more entry would not).
    assert len(raw) + msg.ENTRY_BYTES > mtu
    if isinstance(msg, EcNack):
        failed, missing = after
        # Failed submessages first, then missing chunks -- but one missing
        # chunk always stays: the sender resends only named chunks.
        if len(failed) < len(msg.failed_submessages):
            assert len(missing) == min(1, len(msg.missing_chunks))
        assert missing or not msg.missing_chunks


def test_fit_reserves_the_ecn_trailer():
    ack = Ack(1, 0, 0, b"\xff" * 600, ecn_marked=2, ecn_seen=9)
    fitted = ack.fit(256)
    assert len(fitted.window) == 256 - 17 - 9
    assert decode_message(fitted.pack()) == fitted
    assert len(Ack(1, 0, 0, b"\xff" * 600).fit(256).window) == 256 - 17


_TAGS = range(1, 10)


@settings(max_examples=500)
@given(tag=st.sampled_from(_TAGS), seq=_IDX, body=st.binary(max_size=64))
def test_garbage_decodes_to_a_message_or_a_protocol_error(tag, seq, body):
    raw = bytes([tag]) + seq.to_bytes(4, "little") + body
    try:
        msg = decode_message(raw)
    except ProtocolError:
        return
    assert msg.msg_seq == seq


@settings(max_examples=300)
@given(
    tag=st.sampled_from(_TAGS), seq=_IDX,
    counts=st.lists(st.integers(0, 40) | _IDX, min_size=5, max_size=5),
    tail=st.binary(max_size=64),
)
def test_garbage_counts_decode_to_a_message_or_a_protocol_error(
    tag, seq, counts, tail
):
    """Count and length fields that claim more than the body holds."""
    body = b"".join(c.to_bytes(4, "little") for c in counts) + tail
    for cut in (0, 3, 4, 8, 12, 16, 20, len(body)):
        raw = bytes([tag]) + seq.to_bytes(4, "little") + body[:cut]
        try:
            decode_message(raw)
        except ProtocolError:
            pass


class TestAckMask:
    """An ACK's window: below ``window_start`` delivered, LSB-first bits
    from there, past the window missing, all clipped to the message."""

    def test_below_the_window_is_delivered(self):
        ack = Ack(0, 8, 8, b"\x05")
        assert set(mask_bits(ack.acked_mask(20))) == set(range(8)) | {8, 10}

    def test_past_the_window_is_missing(self):
        assert Ack(0, 0, 0, b"\xff").acked_mask(30) == 0xFF

    def test_clipped_to_the_message(self):
        assert Ack(0, 0, 0, b"\xff").acked_mask(3) == 0b111
        assert Ack(0, 0, 2**32 - 1, b"\xff").acked_mask(3) == 0

    def test_a_finished_answer_confirms_every_chunk(self):
        from repro.reliability.sr import FINISHED

        assert decode_message(Ack(4, FINISHED).pack()) == Ack(4, FINISHED)
        for nchunks in (1, 9, 512):
            assert Ack(4, FINISHED).acked_mask(nchunks) == (1 << nchunks) - 1


class TestRecords:
    """The messages are tuple-backed; the frozen-dataclass promises hold."""

    MESSAGES = [
        Ack(1, 2, 0, b"\x01", 3, 4), SrNack(1, (2, 3)), EcAck(1),
        EcNack(1, (0,), (4, 5)), Done(1), Provision(1, "ec"),
        ResumeReq(1, 2), RepairReq(1, 2, 8, b"\x03"),
    ]

    @pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: type(m).__name__)
    def test_fields_are_read_only(self, msg):
        for name in msg._fields:
            with pytest.raises(AttributeError):
                setattr(msg, name, 0)
        with pytest.raises(AttributeError):
            msg.extra = 0

    @pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: type(m).__name__)
    def test_equal_only_to_its_own_type(self, msg):
        twin = type(msg)(*msg)
        assert msg == twin and not msg != twin and hash(msg) == hash(twin)
        assert msg != tuple(msg) and not msg == tuple(msg)
        assert tuple(msg) != msg
        assert msg != msg._replace(msg_seq=9)

    def test_same_shape_messages_of_different_types_differ(self):
        # As plain tuples Done(3) and EcAck(3) would compare equal.
        assert Done(3) != EcAck(3) and not Done(3) == EcAck(3)
        assert EcAck(3) != Done(3)
        assert len({Done(3), Done(3)}) == 1
