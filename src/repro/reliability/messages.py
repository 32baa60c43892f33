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

Every variable-length message declares ``FIXED_BYTES`` / ``ENTRY_BYTES``
and a ``fit(room)``, which ``ControlPath.send`` applies at the path MTU
(docs/protocols.md, "Control-message sizing").
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.common.bitmap import mask_bits
from repro.common.errors import ProtocolError

_HEADER = struct.Struct("<BI")  # type, msg_seq
_U32 = struct.Struct("<I")
#: Type tag -> ``unpack`` of the message class registered under it.
_DECODERS = {}


def _windowed(cls, body: bytes) -> list:
    """The one window decoder: ``cls._FIXED`` ends in (window_start,
    window_len) and the window's bytes follow.  Returns the fixed fields,
    ``window_start`` last, then the window."""
    *fields, wlen = cls._FIXED.unpack_from(body)
    window = body[cls._FIXED.size : cls._FIXED.size + wlen]
    if len(window) != wlen:
        raise ProtocolError(f"truncated {cls.__name__} window")
    return [*fields, window]


def _window_mask(below: int, start: int, window: bytes, nchunks: int) -> int:
    """Chunks ``[0, below)`` plus the window's bits (byte ``b`` bit ``i`` is
    chunk ``start + 8*b + i``) below ``nchunks``; bit ``i`` = chunk ``i``."""
    mask = (1 << min(below, nchunks)) - 1
    if window and start < nchunks:  # and no shift by a wire-supplied u32
        mask |= (int.from_bytes(window, "little") << start) & ((1 << nchunks) - 1)
    return mask


def _fit(self, room: int):
    """``fit`` of a one-list message: shed entries off the tail of field
    ``_TAIL`` until it packs to at most ``room`` bytes (itself if it does)."""
    over = len(self.pack()) - room
    if over <= 0:
        return self
    tail = getattr(self, self._TAIL)
    keep = max(len(tail) + (-over // self.ENTRY_BYTES), 0)
    return self._replace(**{self._TAIL: tail[:keep]})


def _eq(self, other) -> bool:
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def _ne(self, other) -> bool:
    return not _eq(self, other)


def _message(tag: int):
    """Class decorator of every control message below: it goes on the wire
    behind type ``tag``, and ``decode_message`` decodes that tag with it.

    The messages are ``NamedTuple`` records: immutable, and built by one
    ``tuple.__new__`` where a frozen dataclass pays an
    ``object.__setattr__`` per field (an ACK goes out per bitmap poll; see
    ``docs/simulation.md``, "Hot-path records").  Plain tuples compare by
    value alone, which would make ``Done(3) == EcAck(3)``; this keeps the
    dataclass rule that a message equals only its own type.
    """

    def register(cls):
        cls.__eq__, cls.__ne__, cls._TAG = _eq, _ne, tag
        _DECODERS[tag] = cls.unpack
        return cls

    return register


@_message(1)
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
    #: Bytes before the window (and ``_ECN.size`` after it when echoing
    #: marks), bytes per window byte (8 chunks).
    FIXED_BYTES, ENTRY_BYTES = _HEADER.size + _FIXED.size, 1
    _TAIL = "window"  # the ECN trailer keeps its room
    fit = _fit

    def pack(self) -> bytes:
        raw = (
            _HEADER.pack(self._TAG, self.msg_seq)
            + self._FIXED.pack(self.cumulative, self.window_start, len(self.window))
            + self.window
        )
        if self.ecn_marked > 0:
            raw += self._ECN.pack(self._ECN_MARKER, self.ecn_marked, self.ecn_seen)
        return raw

    @classmethod
    def unpack(cls, msg_seq: int, body: bytes) -> "Ack":
        cumulative, start, window = _windowed(cls, body)
        marked = seen = 0
        off = cls._FIXED.size + len(window)
        if len(body) >= off + cls._ECN.size and body[off] == cls._ECN_MARKER:
            _, marked, seen = cls._ECN.unpack_from(body, off)
        return cls(msg_seq, cumulative, start, window, marked, seen)

    def acked_mask(self, nchunks: int) -> int:
        """The chunks this ACK confirms, as an integer: bit ``i`` = chunk ``i``.

        Cumulative prefix plus window bits, clipped to ``nchunks``.  A sender
        intersects it with its own outstanding mask, so an ACK costs the
        chunks it newly confirms and not the prefix every ACK repeats.
        """
        return _window_mask(self.cumulative, self.window_start, self.window, nchunks)


@_message(2)
class SrNack(NamedTuple):
    """SR negative acknowledgment: explicit missing-chunk indices."""

    msg_seq: int
    chunks: tuple[int, ...]

    FIXED_BYTES, ENTRY_BYTES = _HEADER.size + _U32.size, 4
    _TAIL = "chunks"
    fit = _fit

    def pack(self) -> bytes:
        n = len(self.chunks)
        return _HEADER.pack(self._TAG, self.msg_seq) + struct.pack(
            f"<I{n}I", n, *self.chunks
        )

    @classmethod
    def unpack(cls, msg_seq: int, body: bytes) -> "SrNack":
        (n,) = _U32.unpack_from(body)
        return cls(msg_seq, struct.unpack_from(f"<{n}I", body, 4))


@_message(3)
class EcAck(NamedTuple):
    """EC positive acknowledgment: all data submessages recoverable."""

    msg_seq: int

    def pack(self) -> bytes:
        return _HEADER.pack(self._TAG, self.msg_seq)

    @classmethod
    def unpack(cls, msg_seq: int, body: bytes) -> "EcAck":
        return cls(msg_seq=msg_seq)


@_message(4)
class EcNack(NamedTuple):
    """EC fallback request: failed submessages + their missing data chunks.

    ``missing_chunks`` are message-global data-chunk indices, so the sender
    can selectively repeat exactly the lost chunks of the failed
    submessages.
    """

    msg_seq: int
    failed_submessages: tuple[int, ...]
    missing_chunks: tuple[int, ...]

    _COUNTS = struct.Struct("<II")
    FIXED_BYTES, ENTRY_BYTES = _HEADER.size + _COUNTS.size, 4

    def fit(self, room: int) -> "EcNack":
        """Keep failed submessages first, then missing chunks, as many as
        fit ``room`` bytes -- but always one missing chunk: the sender
        resends only the chunks a NACK names."""
        keep = max(room - self.FIXED_BYTES, 0) // self.ENTRY_BYTES
        failed, missing = self.failed_submessages, self.missing_chunks
        if len(failed) + len(missing) <= keep:
            return self
        failed = failed[: max(keep - (1 if missing else 0), 0)]
        return EcNack(self.msg_seq, failed, missing[: keep - len(failed)])

    def pack(self) -> bytes:
        failed, missing = self.failed_submessages, self.missing_chunks
        return _HEADER.pack(self._TAG, self.msg_seq) + struct.pack(
            f"<II{len(failed) + len(missing)}I",
            len(failed), len(missing), *failed, *missing,
        )

    @classmethod
    def unpack(cls, msg_seq: int, body: bytes) -> "EcNack":
        nf, nc = cls._COUNTS.unpack_from(body)
        entries = struct.unpack_from(f"<{nf + nc}I", body, cls._COUNTS.size)
        return cls(msg_seq, entries[:nf], entries[nf:])


@_message(5)
class Done(NamedTuple):
    """Final ACK: message fully delivered, sender may release the buffer."""

    msg_seq: int

    def pack(self) -> bytes:
        return _HEADER.pack(self._TAG, self.msg_seq)

    @classmethod
    def unpack(cls, msg_seq: int, body: bytes) -> "Done":
        return cls(msg_seq=msg_seq)


@_message(6)
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
        return _HEADER.pack(self._TAG, self.msg_seq) + bytes([code])

    @classmethod
    def unpack(cls, msg_seq: int, body: bytes) -> "Provision":
        if not body:
            raise ProtocolError("truncated provision message")
        name = cls._NAMES.get(body[0])
        if name is None:
            raise ProtocolError(f"unknown protocol code {body[0]}")
        return cls(msg_seq=msg_seq, protocol=name)


@_message(7)
class ResumeReq(NamedTuple):
    """Resumption request (sender -> receiver).

    The write identified by ``msg_seq`` exhausted its retry budget; it
    keeps its slot and asks the receiver what it holds.  The receiver
    answers with its scheme's own signal: the bitmap (SR ``Ack``, EC
    ``EcNack``, sampling ``RepairReq``) while it serves the message, its
    completion signal once it finished it.  ``attempt`` numbers the
    resumption (1-based).
    """

    msg_seq: int
    attempt: int = 1

    def pack(self) -> bytes:
        return _HEADER.pack(self._TAG, self.msg_seq) + _U32.pack(self.attempt)

    @classmethod
    def unpack(cls, msg_seq: int, body: bytes) -> "ResumeReq":
        (attempt,) = _U32.unpack_from(body)
        return cls(msg_seq=msg_seq, attempt=attempt)


@_message(9)
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
    FIXED_BYTES, ENTRY_BYTES = _HEADER.size + _FIXED.size, 1
    _TAIL = "missing"
    fit = _fit

    def pack(self) -> bytes:
        return (
            _HEADER.pack(self._TAG, self.msg_seq)
            + self._FIXED.pack(self.segment, self.window_start, len(self.missing))
            + self.missing
        )

    @classmethod
    def unpack(cls, msg_seq: int, body: bytes) -> "RepairReq":
        return cls(msg_seq, *_windowed(cls, body))

    def missing_chunks(self, nchunks: int) -> list[int]:
        """Absolute indices of the chunks this request asks for, ascending."""
        return list(mask_bits(_window_mask(0, self.window_start, self.missing, nchunks)))


def decode_message(raw: bytes):
    """Parse a control datagram into its message dataclass."""
    if raw is None or len(raw) < _HEADER.size:
        raise ProtocolError("control datagram too short")
    mtype, msg_seq = _HEADER.unpack_from(raw)
    decoder = _DECODERS.get(mtype)
    if decoder is None:
        raise ProtocolError(f"unknown control message type {mtype}")
    try:
        return decoder(msg_seq, raw[_HEADER.size :])
    except struct.error as exc:  # fields or counts past the end of the body
        raise ProtocolError(f"truncated control message type {mtype}") from exc
