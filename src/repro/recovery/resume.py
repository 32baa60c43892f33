"""Resume tokens: portable snapshots of a failed transfer's bitmap state.

When a reliability layer exhausts its retry budget (or a plane fails over
mid-transfer), the sender snapshots the frontend chunk bitmap into a
:class:`ResumeToken`.  Resumption re-posts the message under a fresh
``(msg_id, generation)`` slot -- late packets addressed to the old slot die
on the NULL mkey -- and retransmits *only* the chunks the token marks
missing.

Tokens are plain data: they can be constructed automatically (the internal
auto-resume path inside :class:`~repro.reliability.sr.SrSender` and
:class:`~repro.reliability.ec.EcSender`) or by the application from a
:class:`~repro.common.errors.DeliveryError`, then handed to the sender's
``resume()`` entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class ResumeToken:
    """Snapshot of a partially delivered message, sufficient to resume it.

    ``bitmap`` packs the delivered-chunk flags MSB-first (chunk 0 = bit 7 of
    byte 0), the same layout :func:`numpy.packbits` produces and
    :class:`~repro.common.errors.DeliveryError` carries.
    """

    msg_seq: int
    length: int
    total_chunks: int
    bitmap: bytes = b""
    reason: str = ""
    attempt: int = 1
    protocol: str = "sr"

    def delivered_mask(self) -> np.ndarray:
        """Boolean per-chunk array: True where the chunk already arrived."""
        if not self.bitmap:
            return np.zeros(self.total_chunks, dtype=bool)
        bits = np.unpackbits(
            np.frombuffer(self.bitmap, dtype=np.uint8), count=self.total_chunks
        )
        return bits.astype(bool)

    @property
    def delivered_chunks(self) -> int:
        return int(self.delivered_mask().sum())

    @property
    def missing_chunks(self) -> int:
        return self.total_chunks - self.delivered_chunks

    @classmethod
    def from_failure(cls, ticket, error) -> "ResumeToken":
        """Build a token from a failed ticket and its ``DeliveryError``.

        ``error`` must carry bitmap state (``total_chunks > 0``); errors
        raised before any chunk accounting existed cannot seed a resume.
        """
        total = getattr(error, "total_chunks", 0) or 0
        if total <= 0:
            raise ConfigError(
                "cannot build a ResumeToken from an error without bitmap state"
            )
        return cls(
            msg_seq=ticket.seq,
            length=ticket.length,
            total_chunks=total,
            bitmap=getattr(error, "bitmap", b"") or b"",
            reason=str(error),
            attempt=getattr(ticket, "resumptions", 0) + 1,
        )
