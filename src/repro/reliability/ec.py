"""Erasure-coding reliability over the SDR bitmap (Section 4.1.2).

The sender splits an M-chunk message into ``L = ceil(M / k)`` data
submessages of ``k`` chunks, erasure-codes each into ``m`` parity chunks,
and ships 2L SDR sends (data submessages first, parity alongside as
encoding completes).  The submessages are the segments of a
:class:`~repro.ec.segmented.SegmentedCode`, which owns the geometry,
padding, parity, recoverability test and decode.  Encoding overlaps
injection; its cost is simulated by an ``encode_bps`` budget (the paper
hides it on spare CPU cores).

The receiver watches the per-submessage bitmaps.  Once every data
submessage is *recoverable* (enough of its k+m coded chunks arrived), it
decodes in place and returns a single positive ACK.  A fallback timeout::

    FTO = (M + ceil(M/R)) * T_INJ + beta * RTT          (R = k/m)

armed when the first chunk of the message is observed, triggers an EC NACK
listing the failed submessages and their missing data chunks; those chunks
are then selectively repeated until the message completes -- the SR
fallback.  A global timeout at message post guards against total loss of
the first transmission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.common.config import Bounded, bound
from repro.common.errors import ConfigError, DecodeFailure, ProtocolError
from repro.ec.codec import ErasureCode, get_codec
from repro.ec.segmented import SegmentedCode, SegmentLayout
from repro.reliability.base import (
    ControlPath,
    Receiver,
    ReceiveTicket,
    Sender,
    WriteState,
    WriteTicket,
    register_scheme,
)
from repro.reliability.messages import EcAck, EcNack
from repro.sdr.handles import ChunkCount, RecvHandle
from repro.sdr.qp import SdrQp, SdrRecvWr
from repro.telemetry.trace import flow_key
from repro.verbs.mr import MemoryRegion

#: Spacing of fallback NACK rounds, in RTTs.
FALLBACK_INTERVAL_RTTS = 1.0


@dataclass(frozen=True)
class EcConfig(Bounded):
    """Tuning knobs for the Erasure Coding layer."""

    codec: str = "mds"
    k: int = field(default=32, metadata=bound(gt=0))
    m: int = field(default=8, metadata=bound(gt=0))
    #: FTO slack in RTTs (the paper's beta; with alpha = 2 switch buffering,
    #: beta = 0.5 * alpha = 1).
    beta_rtts: float = field(default=1.0, metadata=bound(ge=0))
    #: Simulated encode/decode throughput in bits/s (None = free, i.e. fully
    #: hidden on spare cores as the paper assumes).
    encode_bps: float | None = field(default=None, metadata=bound(gt=0, optional=True))
    decode_bps: float | None = field(default=None, metadata=bound(gt=0, optional=True))
    #: Receiver re-ACK grace period after completion, in RTTs.
    grace_rtts: float = 10.0
    #: Sender-side deadlock guard, in RTTs past the expected completion.
    global_timeout_rtts: float = field(default=200.0, metadata=bound(gt=0))
    #: Receiver-side liveness valve: stop the fallback NACK loop after this
    #: many RTTs past the FTO (None = NACK forever, the default).
    serve_deadline_rtts: float | None = field(
        default=None, metadata=bound(gt=0, optional=True)
    )
    #: Resumptions in place allowed per message (0 = disabled).  On global
    #: timeout the write keeps its slots and asks the receiver, whose EC
    #: NACK names what it still lacks; the fallback repeats those chunks
    #: under a fresh global timeout (docs/robustness.md).
    max_resumptions: int = field(default=0, metadata=bound(ge=0))

    @property
    def parity_ratio(self) -> float:
        return self.k / self.m

    def make_codec(self) -> ErasureCode:
        return get_codec(self.codec, self.k, self.m)


def largest_receive(
    message_bytes: int, chunk_bytes: int, ec: EcConfig | None = None
) -> int:
    """The SDR ``max_message_bytes`` that ``message_bytes`` writes need: the
    message itself (at least a chunk), and under ``ec`` each submessage's
    ``m``-chunk parity receive, which can outgrow a small message."""
    parity = ec.m * chunk_bytes if ec is not None else 0
    return max(message_bytes, chunk_bytes, parity)


class _EcSendState(WriteState):
    """An EC write: ``handles`` = L data streams, then L parity streams."""

    def __init__(self, ticket: WriteTicket, handles, nchunks: int, payload):
        super().__init__(ticket, handles, nchunks, payload)
        self.layout: SegmentLayout | None = None
        #: Fallback retransmission attempts per absolute chunk index (lineage).
        self.fallback_attempts: dict[int, int] = {}


class EcSender(Sender):
    """Sender endpoint of the Erasure Coding protocol."""

    scheme = "ec"
    config_type = EcConfig
    state_type = _EcSendState

    def __init__(
        self,
        qp: SdrQp,
        ctrl: ControlPath,
        config: EcConfig | None = None,
        *,
        rtt: float | None = None,
    ):
        super().__init__(qp, ctrl, config, rtt=rtt)
        self.code = SegmentedCode(self.config.make_codec(), qp.config.chunk_bytes)
        self._m_nacks_received = self._scope.counter("nacks_received")
        self._m_fallback_retransmits = self._scope.counter("fallback_retransmits")

    # -- the write path ----------------------------------------------------------------

    def _streams(self, length: int) -> list[int]:
        # All send contexts up front in the agreed matching order: data
        # submessages 0..L-1 first, then parity submessages 0..L-1.
        layout = self.code.layout(length)
        nsub = layout.nsegments
        return [layout.segment_bytes(i) for i in range(nsub)] + [
            layout.m * layout.chunk_bytes
        ] * nsub

    def _start(self, state: _EcSendState) -> None:
        """Write with speculative parity."""
        state.layout = layout = self.code.layout(state.ticket.length)
        nsub = layout.nsegments
        self._post(
            state,
            data_seqs=[h.seq for h in state.handles[:nsub]],
            parity_seqs=[h.seq for h in state.handles[nsub:]],
        )
        self.sim.call_in(0.0, self._launch, state)

    # -- data / parity pumps -------------------------------------------------------------

    def _launch(self, state: _EcSendState) -> None:
        """Inject the data submessages, start encoding parity and arm the
        deadlock guard: no ACK within the global budget fails the write."""
        layout, payload = state.layout, state.payload
        view = None if payload is None else memoryview(payload).toreadonly()
        for i in range(layout.nsegments):
            off, n = layout.segment_offset(i), layout.segment_bytes(i)
            piece = None if view is None else view[off : off + n]
            self.qp.send_stream_continue(state.handles[i], 0, n, piece)
        self._encode_and_inject_parity(state)
        self._arm_global_timeout(state)

    def _arm_global_timeout(self, state: _EcSendState) -> None:
        """The deadlock guard: no ACK within the global budget fails the write."""
        assert self.qp.data_qps[0][0].channel is not None
        bw = self.qp.data_qps[0][0].channel.config.bytes_per_second
        expected = state.layout.length / bw + 2 * self.rtt
        budget = expected + self.config.global_timeout_rtts * self.rtt
        self.sim.call_in(budget, self._global_timeout, state)

    def _encode_and_inject_parity(self, state: _EcSendState, i=0, encoded=False):
        """Parity of submessage ``i`` on, in order; with ``encode_bps`` each
        encode first takes its simulated time (``encoded``: it has)."""
        layout, bps = state.layout, self.config.encode_bps
        nsub = layout.nsegments
        for i in range(i, nsub):
            if bps is not None and not encoded:
                delay = layout.segment_bytes(i) * 8.0 / bps
                self.sim.call_in(delay, self._encode_and_inject_parity, state, i, True)
                return
            encoded = False
            parity = None
            if state.payload is not None:
                parity = self.code.encode_segment(state.payload, layout, i).tobytes()
            self.qp.send_stream_continue(
                state.handles[nsub + i], 0, layout.m * layout.chunk_bytes, parity
            )

    def _global_timeout(self, state: _EcSendState) -> None:
        if state.ticket.seq in self._states:
            self._fail(
                state,
                f"EC write seq={state.ticket.seq} saw no ACK within the "
                f"global timeout",
                event="global_timeout",
            )

    def _escalate(self, state: WriteState, reason: str) -> bool:
        return self._resume(state)

    #: A revived write's global timeout starts over; the receiver's NACK
    #: that revived it drives the fallback repeats.
    _resumed = _arm_global_timeout

    # -- control-path handling --------------------------------------------------------------

    def _on_ctrl(self, msg) -> None:
        if isinstance(msg, EcAck):
            self._revive(msg.msg_seq)
            state = self._states.pop(msg.msg_seq, None)
            if state is not None:
                self._complete_write(
                    state, fell_back=state.ticket.fell_back_to_sr
                )
        elif isinstance(msg, EcNack):
            state = self._states.get(msg.msg_seq) or self._revive(msg.msg_seq)
            if state is None:
                return
            state.ticket.nacks_received += 1
            state.ticket.fell_back_to_sr = True
            self._m_nacks_received.inc()
            if self.recovery is not None:
                self.recovery.note_nack(
                    src_qpn=self.qp.data_qps[0][0].qpn,
                    missing=len(msg.missing_chunks),
                )
            if self._trace.enabled:
                self._trace.instant(
                    "sr_fallback", cat="ec", track=self._track,
                    msg=msg.msg_seq, seq=msg.msg_seq,
                    missing=len(msg.missing_chunks),
                )
            layout = state.layout
            for chunk in msg.missing_chunks:
                chunk = int(chunk)
                if chunk >= state.nchunks:
                    continue
                sub = layout.segment_of(chunk)
                j = chunk - layout.chunk_range(sub)[0]
                attempt = state.fallback_attempts.get(chunk, 0) + 1
                state.fallback_attempts[chunk] = attempt
                hdl = state.handles[sub]
                if self._trace.enabled:
                    self._trace.instant(
                        "nack_retx", cat="ec", track=self._track,
                        msg=hdl.seq, chunk=j, attempt=attempt,
                        parent=state.ticket.seq,
                    )
                    self._trace.flow_start(
                        "retx", cat="ec", track=self._track,
                        flow_id=flow_key(hdl.seq, j, attempt),
                        msg=hdl.seq, chunk=j, attempt=attempt,
                    )
                self._send_chunk(
                    state, chunk, attempt=attempt, hdl=hdl,
                    origin=layout.segment_offset(sub),
                )
                state.ticket.retransmitted_chunks += 1
                self._m_fallback_retransmits.inc()


@dataclass
class _EcReceive:
    """Receive-side state of one EC message (2L posted slots)."""

    ticket: ReceiveTicket
    layout: SegmentLayout
    mr: MemoryRegion
    mr_offset: int
    data: list[RecvHandle]
    parity: list[RecvHandle]
    #: The parity scratch MRs this message holds until its slots are freed.
    scratch: list[MemoryRegion]
    #: Armed by the first chunk (or the guard): the fallback timeout.
    fto_deadline: float | None = None

    @property
    def handles(self) -> list[RecvHandle]:
        return self.data + self.parity

    def data_present(self, sub: int) -> np.ndarray:
        """Arrival flags of submessage ``sub``'s real data chunks."""
        return self.data[sub].bitmap().as_array()


class EcReceiver(Receiver):
    """Receiver endpoint of the Erasure Coding protocol."""

    scheme = "ec"
    config_type = EcConfig

    def __init__(
        self,
        qp: SdrQp,
        ctrl: ControlPath,
        config: EcConfig | None = None,
        *,
        rtt: float | None = None,
    ):
        super().__init__(qp, ctrl, config, rtt=rtt)
        self.code = SegmentedCode(self.config.make_codec(), qp.config.chunk_bytes)
        self._m_acks_sent = self._scope.counter("acks_sent")
        self._m_nacks_sent = self._scope.counter("nacks_sent")
        self._m_submessages_decoded = self._scope.counter("submessages_decoded")
        self._m_decoded_chunks = self._scope.counter("decoded_chunks")
        #: Parity scratch no slot points at, by payload mode: ``mr_reg`` runs
        #: only when the list is empty, so registrations are bounded by the
        #: receives in flight, not by the messages served (``_release``).
        self._free_scratch: dict[bool, list[MemoryRegion]] = {False: [], True: []}

    @property
    def nacks_sent(self) -> int:
        return self._m_nacks_sent.value

    @property
    def submessages_decoded(self) -> int:
        """Submessages that needed speculative-parity decoding."""
        return self._m_submessages_decoded.value

    # -- public API ---------------------------------------------------------------------

    def post_receive(
        self, mr: MemoryRegion, length: int, mr_offset: int = 0
    ) -> ReceiveTicket:
        """Post user buffer + pooled parity scratch; matching order = sender's."""
        layout = self.code.layout(length)
        nsub = layout.nsegments
        parity_bytes = layout.m * layout.chunk_bytes
        needed = 2 * nsub
        if needed > self.qp.config.inflight_messages:
            raise ConfigError(
                f"EC receive needs {needed} SDR slots "
                f"(L={nsub} submessages); configure "
                f"inflight_messages >= {needed}"
            )
        data_handles = [
            self.qp.recv_post(
                SdrRecvWr(
                    mr=mr,
                    length=layout.segment_bytes(i),
                    mr_offset=mr_offset + layout.segment_offset(i),
                )
            )
            for i in range(nsub)
        ]
        free = self._free_scratch[mr.payload_mode]
        scratch = [
            free.pop() if free else self.qp.ctx.mr_reg(
                parity_bytes,
                data=bytearray(parity_bytes) if mr.payload_mode else None,
                name="parity",
            )
            for _ in range(nsub)
        ]
        parity_handles = [
            self.qp.recv_post(SdrRecvWr(mr=s, length=parity_bytes)) for s in scratch
        ]
        ticket = ReceiveTicket(
            seq=data_handles[0].seq,
            length=length,
            done=self.sim.event(),
            recv_handles=data_handles + parity_handles,
        )
        rx = _EcReceive(
            ticket, layout, mr, mr_offset, data_handles, parity_handles, scratch
        )
        self._file(ticket, rx)
        self.sim.call_in(0.0, self._serve, rx)
        return ticket

    # -- answering a resumption ------------------------------------------------------

    def _answer_serving(self, ticket: ReceiveTicket, rx: _EcReceive) -> None:
        """NACK what is still pending, or ACK a message already recoverable.
        The serve deadline, which counts from a passed FTO, starts over."""
        if rx.fto_deadline is not None:
            rx.fto_deadline = max(rx.fto_deadline, self.sim.now)
        pending = [
            s for s in range(rx.layout.nsegments) if not self._recoverable(rx, s)
        ]
        if pending:
            self._send_nack(rx, pending)
        else:
            self._send_ack(ticket.seq)

    def _answer_finished(self, seq: int) -> None:
        self._send_ack(seq)

    # -- receive logic -------------------------------------------------------------------

    def _recoverable(self, rx: _EcReceive, sub: int) -> bool:
        """Whether submessage ``sub`` decodes from what has arrived so far."""
        data, parity = rx.data[sub].bitmap(), rx.parity[sub].bitmap()
        # By dimension no code rebuilds a segment's real data chunks from
        # fewer arrived chunks than there are real data chunks, so the O(1)
        # popcounts settle almost every wake without unpacking a bitmap.
        if data.count() + parity.count() < len(data):
            return False
        return self.code.recoverable(
            rx.layout, sub, data.as_array(), parity.as_array()
        )

    def _fto(self, layout: SegmentLayout) -> float:
        """FTO = (M + ceil(M/R)) * T_INJ + beta * RTT."""
        assert self.qp.data_qps[0][0].channel is not None
        bw = self.qp.data_qps[0][0].channel.config.bytes_per_second
        t_inj = layout.chunk_bytes / bw
        parity_chunks = math.ceil(layout.nchunks / self.config.parity_ratio)
        return (layout.nchunks + parity_chunks) * t_inj + (
            self.config.beta_rtts * self.rtt
        )

    def _serve(self, rx: _EcReceive) -> None:
        """Phase 1: wait for the first chunk of the message (arms FTO), with
        a global guard in case the entire first transmission is lost.

        The wait keeps both hops of the ``any_of`` gates it replaced: the
        first chunk on any handle schedules ``guard.expire_now`` a hop later.
        """
        sim = self.sim
        guard = sim.timer(sim.call_in, 0.0, self._await_recoverable, rx)
        first = ChunkCount(1, sim.call_in, 0.0, guard.expire_now)
        for h in rx.handles:
            h.count = first
        guard.arm(self._fto(rx.layout) + 2 * self.rtt)

    def _await_recoverable(self, rx: _EcReceive) -> None:
        """Phase 2: wait until recoverable or FTO expiry, then NACK rounds."""
        ticket, layout, now = rx.ticket, rx.layout, self.sim.now
        if ticket.seq not in self._serving:
            return  # given up
        if rx.fto_deadline is None:  # phase 1 just ended
            rx.fto_deadline = now + self._fto(layout)
        pending = [s for s in range(layout.nsegments) if not self._recoverable(rx, s)]
        if not pending:
            self._decode(rx, 0, partial(self._complete, rx))
            return
        rtts = self.config.serve_deadline_rtts
        if rtts is not None and now >= rx.fto_deadline + rtts * self.rtt:
            self._give_up(ticket, self._arrived(ticket, rx))
            self._release(rx)
            return
        if now >= rx.fto_deadline:
            ticket.fell_back_to_sr = True
            self._send_nack(rx, pending)
            retry = FALLBACK_INTERVAL_RTTS * self.rtt
            self.sim.call_in(retry, self._await_recoverable, rx)
            return
        # A pending segment's two handles count down to the first chunk that
        # can make it recoverable (``_recoverable``'s bound); a count at 0,
        # and so a recoverable segment's, stays dead.  Before D/2 each chunk
        # wakes: a wake re-arms the FTO, and now + (D - now) is D only from
        # D/2 on.
        timer = self.sim.timer(self.sim.call_in, 0.0, self._await_recoverable, rx)
        deadline = rx.fto_deadline
        for s in pending:
            data, parity = rx.data[s], rx.parity[s]
            short = data.nchunks - data.bitmap().count() - parity.bitmap().count()
            if now < deadline / 2 or short < 1:
                short = 1
            data.count = parity.count = ChunkCount(short, timer.expire_now)
        timer.arm(deadline - now)

    def abandon(self, ticket: ReceiveTicket) -> None:
        entry = self._serving.get(ticket.seq)
        super().abandon(ticket)
        if entry is not None:
            self._release(entry[1])

    def _arrived(self, ticket: ReceiveTicket, rx: _EcReceive) -> np.ndarray:
        return np.concatenate(
            [rx.data_present(s) for s in range(rx.layout.nsegments)]
        )

    def _complete(self, rx: _EcReceive) -> None:
        """Phase 3's end: complete, ACK.

        EC frees its slots *before* the first ACK (the shared ``_finish``
        then finds nothing left to complete); grace re-ACKs cover a drop.
        """
        for h in rx.handles:
            if not h.completed:
                h.complete()
        self._release(rx)
        seq = rx.ticket.seq
        self._send_ack(seq)
        self._finish(rx.ticket, (), partial(self._send_ack, seq), 2 * self.rtt)

    def _release(self, rx: _EcReceive) -> None:
        """Every slot of ``rx`` points at the NULL mkey, so late parity dies
        there and its scratch can serve the next receive.  A second call
        (an abandon during grace) finds nothing left to give back."""
        self._free_scratch[rx.mr.payload_mode] += rx.scratch
        rx.scratch = []

    def _send_ack(self, seq: int) -> None:
        self.ctrl.send(EcAck(msg_seq=seq))
        self._m_acks_sent.inc()

    def _send_nack(self, rx: _EcReceive, pending: list[int]) -> None:
        seq, layout = rx.ticket.seq, rx.layout
        missing = [
            layout.chunk_range(s)[0] + int(j)
            for s in pending for j in np.flatnonzero(~rx.data_present(s))
        ]
        # What does not fit the MTU is listed again the next round.
        nack, _ = self.ctrl.send(EcNack(seq, tuple(pending), tuple(missing)))
        self._m_nacks_sent.inc()
        if self._trace.enabled:
            self._trace.instant(
                "ec_nack", cat="ec", track=self._track,
                msg=seq, seq=seq, failed_subs=len(nack.failed_submessages),
                missing=len(nack.missing_chunks),
            )

    def _decode(self, rx: _EcReceive, s: int, then) -> None:
        """Decode submessages ``s``.. (all recoverable) in place, then
        ``then()``; with ``decode_bps`` each decode takes simulated time."""
        for s in range(s, rx.layout.nsegments):
            data_present = rx.data_present(s)
            if data_present.all():
                continue
            self._m_submessages_decoded.inc()
            missing = int((~data_present).sum())
            rx.ticket.decoded_chunks += missing
            self._m_decoded_chunks.inc(missing)
            args = (rx, s, data_present, missing, self.sim.now)
            if self.config.decode_bps is not None:
                delay = rx.layout.segment_bytes(s) * 8.0 / self.config.decode_bps
                resume = partial(self._decode, rx, s + 1, then)
                self.sim.call_in(delay, self._decode_now, *args, resume)
                return
            self._decode_now(*args)
        then()

    def _decode_now(self, rx: _EcReceive, s, data_present, missing, start, then=None):
        layout, mr = rx.layout, rx.mr
        if self._trace.enabled:
            self._trace.complete(
                "decode", cat="ec", track=self._track, start=start,
                msg=rx.ticket.seq, sub=s, missing_chunks=missing,
            )
        # Sized mode is timing only.  Released scratch may hold another
        # receive's parity; whoever released it decoded this segment first.
        # Survivors are views of the MR; only erased chunks are written back.
        if mr.payload_mode and rx.scratch:
            parity = np.frombuffer(rx.parity[s].mr.data, dtype=np.uint8).reshape(
                layout.m, layout.chunk_bytes
            )
            message = np.frombuffer(mr.data, np.uint8, layout.length, rx.mr_offset)
            data = self.code.segment_data(message, layout, s)
            chunks = {int(j): data[j] for j in np.flatnonzero(data_present)}
            for j in np.flatnonzero(rx.parity[s].bitmap().as_array()):
                chunks[layout.k + int(j)] = parity[j]
            try:
                solved = self.code.decode_rows(layout, s, chunks)
            except DecodeFailure as exc:  # pragma: no cover - guarded
                raise ProtocolError(
                    f"submessage {s} marked recoverable but decode failed"
                ) from exc
            segment = message[layout.segment_offset(s) :][: layout.segment_bytes(s)]
            for j in np.flatnonzero(~data_present):
                lo = int(j) * layout.chunk_bytes
                hi = min(lo + layout.chunk_bytes, len(segment))
                segment[lo:hi] = solved[j, : hi - lo]
        if then is not None:
            then()


register_scheme("ec", EcSender, EcReceiver)
