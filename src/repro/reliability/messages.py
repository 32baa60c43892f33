"""Wire formats for reliability-protocol control messages.

All control messages travel as single UD datagrams on the control-path QP
(Section 4.1: "a control-path UC (or UD) QP to exchange protocol
acknowledgment packets with low overhead").  Formats are packed with
:mod:`struct`; every message starts with a one-byte type tag followed by the
message sequence number it refers to.

The SR ACK implements the paper's two-part encoding:

* *cumulative ACK* -- the highest chunk sequence number for which all
  previous chunks have been received, and
* *selective ACK* -- a window of the receiver's chunk bitmap, as much as
  fits in the ACK payload, starting from the cumulative ACK.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.common.bitmap import mask_bits
from repro.common.errors import ProtocolError

_TYPE_ACK = 1
_TYPE_SR_NACK = 2
_TYPE_EC_ACK = 3
_TYPE_EC_NACK = 4
_TYPE_DONE = 5
_TYPE_PROVISION = 6
_TYPE_RESUME_REQ = 7
_TYPE_RESUME_ACK = 8
_TYPE_REPAIR_REQ = 9

_HEADER = struct.Struct("<BI")  # type, msg_seq


def _eq(self, other) -> bool:
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def _ne(self, other) -> bool:
    return not _eq(self, other)


def _message(cls):
    """Class decorator of every control message below.

    The messages are ``NamedTuple`` records: immutable, and built by one
    ``tuple.__new__`` where a frozen dataclass pays an
    ``object.__setattr__`` per field (an ACK goes out per bitmap poll; see
    ``docs/simulation.md``, "Hot-path records").  Plain tuples compare by
    value alone, which would make ``Done(3) == EcAck(3)``; this keeps the
    dataclass rule that a message equals only its own type.
    """
    cls.__eq__ = _eq
    cls.__ne__ = _ne
    return cls


@_message
class Ack(NamedTuple):
    """SR acknowledgment: cumulative + selective bitmap window.

    When the receiver observed ECN CE marks since its last ACK, an optional
    ECN-echo trailer follows the window: one nonzero marker byte, then the
    CE-marked and total packet counts of the delta.  The marker must be
    nonzero because the control path zero-pads short datagrams to its
    minimum wire size -- an all-zero tail parses as "no trailer", so
    mark-free ACKs keep their exact pre-cc wire encoding.
    """

    msg_seq: int
    cumulative: int
    window_start: int = 0
    window: bytes = b""
    #: ECN echo delta since the previous ACK: CE-marked / total validated
    #: packets.  (0, 0) omits the trailer entirely.
    ecn_marked: int = 0
    ecn_seen: int = 0

    _FIXED = struct.Struct("<III")  # cumulative, window_start, window_len
    _ECN = struct.Struct("<BII")  # marker (nonzero), ce_count, seen_count
    _ECN_MARKER = 1

    def pack(self) -> bytes:
        raw = (
            _HEADER.pack(_TYPE_ACK, self.msg_seq)
            + self._FIXED.pack(self.cumulative, self.window_start, len(self.window))
            + self.window
        )
        if self.ecn_marked > 0:
            raw += self._ECN.pack(self._ECN_MARKER, self.ecn_marked, self.ecn_seen)
        return raw

    @classmethod
    def unpack(cls, msg_seq: int, body: bytes) -> "Ack":
        cumulative, start, wlen = cls._FIXED.unpack_from(body)
        window = body[cls._FIXED.size : cls._FIXED.size + wlen]
        if len(window) != wlen:
            raise ProtocolError("truncated ACK window")
        marked = seen = 0
        off = cls._FIXED.size + wlen
        if len(body) >= off + cls._ECN.size and body[off] == cls._ECN_MARKER:
            _, marked, seen = cls._ECN.unpack_from(body, off)
        return cls(msg_seq, cumulative, start, window, marked, seen)

    def acked_mask(self, nchunks: int) -> int:
        """The chunks this ACK confirms, as an integer: bit ``i`` = chunk ``i``.

        Cumulative prefix plus window bits, clipped to ``nchunks``.  A sender
        intersects it with its own outstanding mask, so an ACK costs the
        chunks it newly confirms and not the prefix every ACK repeats.
        """
        mask = (1 << min(self.cumulative, nchunks)) - 1
        if self.window and self.window_start < nchunks:
            mask |= int.from_bytes(self.window, "little") << self.window_start
        return mask & ((1 << nchunks) - 1)

    def acked_chunks(self, nchunks: int) -> set[int]:
        """Chunk indices this ACK confirms (cumulative prefix + window bits)."""
        return set(mask_bits(self.acked_mask(nchunks)))


@_message
class SrNack(NamedTuple):
    """SR negative acknowledgment: explicit missing-chunk indices."""

    msg_seq: int
    chunks: tuple[int, ...]

    def pack(self) -> bytes:
        return (
            _HEADER.pack(_TYPE_SR_NACK, self.msg_seq)
            + struct.pack("<I", len(self.chunks))
            + struct.pack(f"<{len(self.chunks)}I", *self.chunks)
        )

    @classmethod
    def unpack(cls, msg_seq: int, body: bytes) -> "SrNack":
        (n,) = struct.unpack_from("<I", body)
        chunks = struct.unpack_from(f"<{n}I", body, 4)
        return cls(msg_seq=msg_seq, chunks=tuple(chunks))


@_message
class EcAck(NamedTuple):
    """EC positive acknowledgment: all data submessages recoverable."""

    msg_seq: int

    def pack(self) -> bytes:
        return _HEADER.pack(_TYPE_EC_ACK, self.msg_seq)

    @classmethod
    def unpack(cls, msg_seq: int, body: bytes) -> "EcAck":
        return cls(msg_seq=msg_seq)


@_message
class EcNack(NamedTuple):
    """EC fallback request: failed submessages + their missing data chunks.

    ``missing_chunks`` are message-global data-chunk indices, so the sender
    can selectively repeat exactly the lost chunks of the failed
    submessages.
    """

    msg_seq: int
    failed_submessages: tuple[int, ...]
    missing_chunks: tuple[int, ...]

    def pack(self) -> bytes:
        return (
            _HEADER.pack(_TYPE_EC_NACK, self.msg_seq)
            + struct.pack("<II", len(self.failed_submessages), len(self.missing_chunks))
            + struct.pack(
                f"<{len(self.failed_submessages)}I", *self.failed_submessages
            )
            + struct.pack(f"<{len(self.missing_chunks)}I", *self.missing_chunks)
        )

    @classmethod
    def unpack(cls, msg_seq: int, body: bytes) -> "EcNack":
        nf, nc = struct.unpack_from("<II", body)
        off = 8
        failed = struct.unpack_from(f"<{nf}I", body, off)
        off += 4 * nf
        chunks = struct.unpack_from(f"<{nc}I", body, off)
        return cls(
            msg_seq=msg_seq,
            failed_submessages=tuple(failed),
            missing_chunks=tuple(chunks),
        )


@_message
class Done(NamedTuple):
    """Final ACK: message fully delivered, sender may release the buffer."""

    msg_seq: int

    def pack(self) -> bytes:
        return _HEADER.pack(_TYPE_DONE, self.msg_seq)

    @classmethod
    def unpack(cls, msg_seq: int, body: bytes) -> "Done":
        return cls(msg_seq=msg_seq)


@_message
class Provision(NamedTuple):
    """Adaptive-layer announcement: message ``msg_seq`` uses ``protocol``.

    Sent by the receiver (which owns ground truth on observed loss) so both
    endpoints of the adaptive layer run the same scheme per message
    (Section 2.1's per-connection reliability provisioning).
    """

    msg_seq: int
    protocol: str  # "sr" or "ec"

    _CODES = {"sr": 0, "ec": 1}
    _NAMES = {0: "sr", 1: "ec"}

    def pack(self) -> bytes:
        try:
            code = self._CODES[self.protocol]
        except KeyError:
            raise ProtocolError(f"unknown protocol {self.protocol!r}") from None
        return _HEADER.pack(_TYPE_PROVISION, self.msg_seq) + bytes([code])

    @classmethod
    def unpack(cls, msg_seq: int, body: bytes) -> "Provision":
        if not body:
            raise ProtocolError("truncated provision message")
        name = cls._NAMES.get(body[0])
        if name is None:
            raise ProtocolError(f"unknown protocol code {body[0]}")
        return cls(msg_seq=msg_seq, protocol=name)


@_message
class ResumeReq(NamedTuple):
    """Bitmap-driven resumption request (sender -> receiver).

    The write identified by ``msg_seq`` exhausted its retry budget (or a
    plane failed over mid-transfer); the sender asks the receiver to
    abandon the old slot and re-post the remainder under a fresh
    ``(msg_id, generation)`` slot.  ``attempt`` numbers the resumption
    (1-based) so duplicate requests are idempotent.
    """

    msg_seq: int
    attempt: int = 1

    def pack(self) -> bytes:
        return _HEADER.pack(_TYPE_RESUME_REQ, self.msg_seq) + struct.pack(
            "<I", self.attempt
        )

    @classmethod
    def unpack(cls, msg_seq: int, body: bytes) -> "ResumeReq":
        (attempt,) = struct.unpack_from("<I", body)
        return cls(msg_seq=msg_seq, attempt=attempt)


@_message
class ResumeAck(NamedTuple):
    """Resumption grant (receiver -> sender).

    ``new_seq`` is the freshly posted slot serving the resumed attempt;
    ``bitmap`` is the receiver's delivered-chunk bitmap (chunk 0 = MSB of
    byte 0) so the sender retransmits *only missing chunks*.  ``attempt``
    echoes the request so a late grant for a superseded attempt is
    discarded instead of desynchronizing the slot lockstep.
    """

    msg_seq: int
    new_seq: int
    total_chunks: int
    attempt: int = 1
    bitmap: bytes = b""

    _FIXED = struct.Struct("<IIII")  # new_seq, total_chunks, attempt, bitmap_len

    def pack(self) -> bytes:
        return (
            _HEADER.pack(_TYPE_RESUME_ACK, self.msg_seq)
            + self._FIXED.pack(
                self.new_seq, self.total_chunks, self.attempt, len(self.bitmap)
            )
            + self.bitmap
        )

    @classmethod
    def unpack(cls, msg_seq: int, body: bytes) -> "ResumeAck":
        new_seq, total, attempt, blen = cls._FIXED.unpack_from(body)
        bitmap = body[cls._FIXED.size : cls._FIXED.size + blen]
        if len(bitmap) != blen:
            raise ProtocolError("truncated resume bitmap")
        return cls(
            msg_seq=msg_seq, new_seq=new_seq, total_chunks=total,
            attempt=attempt, bitmap=bitmap,
        )


@_message
class RepairReq(NamedTuple):
    """Sampling-mode repair request (receiver -> sender).

    Availability sampling flagged segment ``segment`` of message
    ``msg_seq`` as incomplete; ``missing`` is a window of the receiver's
    *inverted* chunk bitmap starting at absolute chunk ``window_start``
    (LSB-first, mirroring the :class:`Ack` window bit order): bit ``i`` of
    byte ``b`` set means chunk ``window_start + 8*b + i`` is missing and
    should be retransmitted.
    """

    msg_seq: int
    segment: int
    window_start: int
    missing: bytes

    _FIXED = struct.Struct("<III")  # segment, window_start, missing_len

    def pack(self) -> bytes:
        return (
            _HEADER.pack(_TYPE_REPAIR_REQ, self.msg_seq)
            + self._FIXED.pack(self.segment, self.window_start, len(self.missing))
            + self.missing
        )

    @classmethod
    def unpack(cls, msg_seq: int, body: bytes) -> "RepairReq":
        segment, start, mlen = cls._FIXED.unpack_from(body)
        missing = body[cls._FIXED.size : cls._FIXED.size + mlen]
        if len(missing) != mlen:
            raise ProtocolError("truncated repair-request bitmap")
        return cls(
            msg_seq=msg_seq, segment=segment, window_start=start,
            missing=missing,
        )

    def missing_chunks(self, nchunks: int) -> list[int]:
        """Absolute indices of the chunks this request asks for, ascending."""
        if self.window_start >= nchunks:
            return []  # and no shift by a wire-supplied u32
        window = int.from_bytes(self.missing, "little") << self.window_start
        return list(mask_bits(window & ((1 << nchunks) - 1)))


_DECODERS = {
    _TYPE_ACK: Ack.unpack,
    _TYPE_SR_NACK: SrNack.unpack,
    _TYPE_EC_ACK: EcAck.unpack,
    _TYPE_EC_NACK: EcNack.unpack,
    _TYPE_DONE: Done.unpack,
    _TYPE_PROVISION: Provision.unpack,
    _TYPE_RESUME_REQ: ResumeReq.unpack,
    _TYPE_RESUME_ACK: ResumeAck.unpack,
    _TYPE_REPAIR_REQ: RepairReq.unpack,
}


def decode_message(raw: bytes):
    """Parse a control datagram into its message dataclass."""
    if raw is None or len(raw) < _HEADER.size:
        raise ProtocolError("control datagram too short")
    mtype, msg_seq = _HEADER.unpack_from(raw)
    decoder = _DECODERS.get(mtype)
    if decoder is None:
        raise ProtocolError(f"unknown control message type {mtype}")
    return decoder(msg_seq, raw[_HEADER.size :])
