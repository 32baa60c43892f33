"""Segmented erasure coding: arbitrary-size messages over fixed (k, m) groups.

A :class:`SegmentedCode` wraps any :class:`~repro.ec.codec.ErasureCode` and
splits a message into segments of ``k`` chunks each; the final segment is
deterministically zero-padded (pad byte ``0x00``, the Animica DA rule) so
both endpoints derive identical coded bytes from the length alone.  Encoding
and decoding are per segment, so injection can overlap encoding and one
unrecoverable segment never blocks the rest of the message.

This is the one place a message is cut into segments.  The EC reliability
scheme (``repro.reliability.ec``) is a :class:`SegmentedCode` whose segments
travel as SDR streams: its stream lengths and offsets, parity, recoverability
test and decode all come from here.  The sampling reliability mode
(``repro.reliability.sampling``) shares the geometry with ``m = 0``: its
availability probes and repair requests are addressed per segment, with
:class:`SegmentLayout` mapping segment ids to absolute chunk ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigError, DecodeFailure
from repro.ec.codec import ErasureCode

#: Deterministic padding byte for the final partial segment.
PAD_BYTE = 0x00


@dataclass(frozen=True)
class SegmentLayout:
    """Chunk/segment geometry of one message (shared by both endpoints)."""

    length: int
    chunk_bytes: int
    k: int
    m: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ConfigError(f"length must be > 0, got {self.length}")
        if self.chunk_bytes <= 0:
            raise ConfigError(
                f"chunk_bytes must be > 0, got {self.chunk_bytes}"
            )
        if self.k <= 0 or self.m < 0:
            raise ConfigError(f"need k > 0, m >= 0, got k={self.k}, m={self.m}")

    @property
    def nchunks(self) -> int:
        """Real data chunks in the message (no padding)."""
        return -(-self.length // self.chunk_bytes)

    @property
    def nsegments(self) -> int:
        return -(-self.nchunks // self.k)

    def segment_of(self, chunk: int) -> int:
        """Segment owning absolute data chunk ``chunk``."""
        if not 0 <= chunk < self.nchunks:
            raise ConfigError(
                f"chunk {chunk} out of range [0, {self.nchunks})"
            )
        return chunk // self.k

    def chunk_range(self, seg: int) -> tuple[int, int]:
        """``(first_chunk, nchunks)`` of segment ``seg`` (real chunks only)."""
        if not 0 <= seg < self.nsegments:
            raise ConfigError(
                f"segment {seg} out of range [0, {self.nsegments})"
            )
        start = seg * self.k
        return start, min(self.k, self.nchunks - start)

    def segment_bytes(self, seg: int) -> int:
        """Real payload bytes of segment ``seg`` (excludes padding)."""
        start, _ = self.chunk_range(seg)
        return min(self.k * self.chunk_bytes, self.length - start * self.chunk_bytes)

    def segment_offset(self, seg: int) -> int:
        start, _ = self.chunk_range(seg)
        return start * self.chunk_bytes


class SegmentedCode:
    """A (k, m) code applied segment-wise to arbitrary-size messages."""

    def __init__(self, base: ErasureCode, chunk_bytes: int):
        if chunk_bytes <= 0:
            raise ConfigError(f"chunk_bytes must be > 0, got {chunk_bytes}")
        self.base = base
        self.chunk_bytes = chunk_bytes

    def layout(self, length: int) -> SegmentLayout:
        return SegmentLayout(
            length=length, chunk_bytes=self.chunk_bytes,
            k=self.base.k, m=self.base.m,
        )

    # -- encode -----------------------------------------------------------------------

    def segment_data(self, payload: bytes, layout: SegmentLayout, seg: int) -> np.ndarray:
        """The (k, chunk_bytes) data array of segment ``seg``: a view of
        ``payload`` for a full segment (it may alias the payload and must not be
        written), a zero-padded copy for the short last one."""
        if len(payload) != layout.length:
            raise ConfigError(
                f"payload is {len(payload)} B but layout says {layout.length}"
            )
        shape, off = (layout.k, layout.chunk_bytes), layout.segment_offset(seg)
        nbytes = layout.segment_bytes(seg)
        raw = np.frombuffer(payload, dtype=np.uint8, count=nbytes, offset=off)
        if nbytes == layout.k * layout.chunk_bytes:
            return raw.reshape(shape)
        data = np.full(shape, PAD_BYTE, dtype=np.uint8)
        data.reshape(-1)[:nbytes] = raw
        return data

    def encode_segment(self, payload: bytes, layout: SegmentLayout, seg: int) -> np.ndarray:
        """The (m, chunk_bytes) parity array of segment ``seg``."""
        return self.base.encode(self.segment_data(payload, layout, seg))

    # -- decode -----------------------------------------------------------------------

    def recoverable(
        self,
        layout: SegmentLayout,
        seg: int,
        data_present: np.ndarray,
        parity_present: np.ndarray,
    ) -> bool:
        """Whether segment ``seg`` decodes from the chunks flagged present.

        ``data_present`` flags the segment's real data chunks, ``parity_present``
        its ``m`` parity chunks.  Padding chunks are zeros by construction, so
        they always count as present -- the rule :meth:`decode_segment` applies.
        """
        _, real = layout.chunk_range(seg)
        present = np.ones(layout.k + layout.m, dtype=bool)
        present[:real] = data_present
        present[layout.k :] = parity_present
        return self.base.recoverable(present)

    def decode_rows(
        self, layout: SegmentLayout, seg: int, chunks: dict[int, np.ndarray]
    ) -> np.ndarray:
        """Recover segment ``seg``'s (k, chunk_bytes) data array, padding and all.

        ``chunks`` maps segment-local coded indices (0..k-1 data, k..k+m-1
        parity) to their bytes.  Chunks the layout marks as pure padding are
        supplied implicitly (they are zeros by construction), so the final
        partial segment decodes from fewer real chunks.
        """
        _, real = layout.chunk_range(seg)
        pad = np.full(layout.chunk_bytes, PAD_BYTE, dtype=np.uint8)
        return self.base.decode(dict.fromkeys(range(real, layout.k), pad) | chunks)

    def decode_segment(
        self, layout: SegmentLayout, seg: int, chunks: dict[int, np.ndarray]
    ) -> bytes:
        """Recover segment ``seg``'s real payload bytes (see :meth:`decode_rows`)."""
        data = self.decode_rows(layout, seg, chunks)
        return data.reshape(-1)[: layout.segment_bytes(seg)].tobytes()

    def decode(self, length: int, chunks: dict[int, np.ndarray]) -> bytes:
        """Recover the whole message from globally-indexed coded chunks.

        Global index layout: data chunks 0..nchunks-1 (absolute message
        chunks), then segment ``s``'s parity chunk ``j`` at
        ``nchunks + s * m + j``.  Raises :class:`DecodeFailure` naming the
        first unrecoverable segment.
        """
        layout = self.layout(length)
        out = bytearray(length)
        for seg in range(layout.nsegments):
            start, real = layout.chunk_range(seg)
            local: dict[int, np.ndarray] = {}
            for j in range(real):
                chunk = chunks.get(start + j)
                if chunk is not None:
                    local[j] = chunk
            for j in range(layout.m):
                par = chunks.get(layout.nchunks + seg * layout.m + j)
                if par is not None:
                    local[layout.k + j] = par
            try:
                piece = self.decode_segment(layout, seg, local)
            except DecodeFailure as exc:
                raise DecodeFailure(
                    f"segment {seg} unrecoverable: {exc}"
                ) from exc
            off = layout.segment_offset(seg)
            out[off : off + len(piece)] = piece
        return bytes(out)
