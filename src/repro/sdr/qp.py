"""The SDR queue pair: generations x channels of UC QPs plus message tables.

An :class:`SdrQp` bundles (Sections 3.2-3.4 of the paper):

* ``generations x channels`` internal UC QPs.  The *channel* dimension
  extracts endpoint parallelism (each channel has its own receive CQ served
  by a DPA worker); the *generation* dimension implements late-packet
  protection across message-ID wraparound.
* A zero-based **indirect memory key table** with one slot per message ID;
  message ``i`` targets root offsets ``[i*M, i*M + M)``.  ``recv_post`` binds
  slot ``i`` to the user buffer, ``recv_complete`` points it back at the
  NULL mkey so late packets are discarded in hardware.
* A control UD QP carrying clear-to-send (CTS) notifications: order-based
  matching requires the receive to be posted before the matching send
  starts injecting.
* Send/receive message tables tracked by :class:`~repro.sdr.handles.SendHandle`
  and :class:`~repro.sdr.handles.RecvHandle`.

Both endpoints derive ``(msg_id, generation)`` for the *k*-th posted message
as ``msg_id = k mod 2^msg_id_bits`` and
``generation = (k div 2^msg_id_bits) mod generations``; order-based matching
keeps the two sides in lockstep without exchanging per-message metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.common.config import SdrConfig
from repro.common.errors import ConfigError, ResourceError, SdrStateError
from repro.sdr.handles import RecvHandle, SendHandle
from repro.sdr.imm import ImmLayout
from repro.telemetry.trace import flow_key
from repro.verbs.cq import CompletionQueue, Cqe
from repro.verbs.mr import IndirectMkeyTable, MemoryRegion
from repro.verbs.qp import QpInfo, SendWr, UcQp, UdQp

if TYPE_CHECKING:  # import cycle guard
    from repro.sdr.context import SdrContext

#: Wire size of a CTS control datagram.
CTS_BYTES = 64
#: Host-side cost to repost a receive buffer (slot reallocation, mkey table
#: update, bitmap cleanup) -- the Section 5.4.1 small-message overhead.
REPOST_SECONDS = 12.0e-6


@dataclass
class SdrSendWr:
    """Work request for ``send_post`` / ``send_stream_start``."""

    length: int
    payload: bytes | None = None
    user_imm: int | None = None

    def __post_init__(self) -> None:
        if self.payload is not None and len(self.payload) != self.length:
            raise ConfigError(
                f"payload length {len(self.payload)} != declared {self.length}"
            )
        if self.user_imm is not None and not 0 <= self.user_imm < 2**32:
            raise ConfigError(f"user immediate must fit 32 bits, got {self.user_imm}")


@dataclass
class SdrRecvWr:
    """Work request for ``recv_post``."""

    mr: MemoryRegion
    length: int
    mr_offset: int = 0

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ConfigError(f"recv length must be > 0, got {self.length}")
        if self.mr_offset < 0 or self.mr_offset + self.length > self.mr.length:
            raise ConfigError(
                f"recv range [{self.mr_offset}, {self.mr_offset + self.length}) "
                f"exceeds MR of {self.mr.length} B"
            )


@dataclass
class SdrQpInfo:
    """Out-of-band blob exchanged between peers (``qp_info_get``)."""

    device: str
    mtu: int
    ctrl_qpn: int
    data_qpns: list[list[int]]  # [generation][channel]
    root_rkey: int
    chunk_bytes: int
    max_message_bytes: int
    generations: int
    channels: int


class SdrQp:
    """One SDR queue pair (see module docstring)."""

    def __init__(self, ctx: "SdrContext", config: SdrConfig):
        self.ctx = ctx
        self.sim = ctx.sim
        self.config = config
        self.layout = ImmLayout.from_config(config)
        dev = ctx.device

        # Receive CQs: one per channel, shared across generations, each
        # attached to a DPA worker (Section 3.4.1).
        self.recv_cqs = [
            CompletionQueue(self.sim, name=f"{dev.name}.sdr.rcq{c}")
            for c in range(config.channels)
        ]
        for cq in self.recv_cqs:
            ctx.dpa.attach(cq, self._process_data_cqe)

        # Send CQ: host-polled (send-side offloading is modeled as free;
        # the receive side dominates the datapath per Section 3.4).  It
        # reads only a completion's wr_id, so the data QPs below hand over
        # just that (``UcQp._wr_counter``), building no record.
        self.send_cq = CompletionQueue(self.sim, name=f"{dev.name}.sdr.scq")

        # Internal data QPs, [generation][channel].
        self.data_qps: list[list[UcQp]] = [
            [
                UcQp(
                    dev,
                    send_cq=self.send_cq,
                    recv_cq=self.recv_cqs[c],
                    generation=g,
                )
                for c in range(config.channels)
            ]
            for g in range(config.generations)
        ]
        for row in self.data_qps:
            for qp in row:
                qp._wr_counter = self._count_injected

        # Control UD QP for CTS (and available to reliability layers).
        self.ctrl_cq = CompletionQueue(self.sim, name=f"{dev.name}.sdr.ctrl")
        self.ctrl_qp = UdQp(dev, send_cq=self.ctrl_cq, recv_cq=self.ctrl_cq)
        self.ctrl_qp.attach_recv_handler(self._on_ctrl)

        # Root indirect mkey table: one slot per message ID (Figure 5).
        self.root_table = IndirectMkeyTable(
            num_slots=config.max_message_ids, slot_bytes=config.max_message_bytes
        )
        dev.reg_mr(self.root_table)

        # Message tables.
        self._send_seq = 0
        self._recv_seq = 0
        self._send_handles: dict[int, SendHandle] = {}
        self._recv_table: dict[int, RecvHandle] = {}
        self._cts_high = -1  # highest receiver seq we may send to
        self._cts_waiters: list[SendHandle] = []

        self.connected = False
        self._remote: SdrQpInfo | None = None
        #: Optional repro.cc token-bucket pacer spacing packet posts; None =
        #: inject at line rate (see ``attach_pacer``).
        self.pacer = None
        self._cts_idle = False  # the refresher waits for the next recv_post
        #: Refreshes remaining before the CTS announcer goes idle; reset on
        #: every recv_post.  Bounds event-heap growth while still repairing
        #: dropped CTS datagrams on lossy control paths.
        self._cts_refresh_budget = 0

        # Telemetry (registry scope sdr.<device>).
        scope = self.sim.telemetry.metrics.scope(f"sdr.{dev.name}")
        self._m_messages_sent = scope.counter("messages_sent")
        self._m_messages_received = scope.counter("messages_received")
        self._m_late_cqes = scope.counter("late_cqes_filtered")
        self._m_cts_sent = scope.counter("cts_sent")
        self._m_chunks_completed = scope.counter("chunks_completed")
        self._m_generation_rollovers = scope.counter("generation_rollovers")
        self._m_duplicate_packets = scope.counter("duplicate_packets")
        self._m_recv_abandoned = scope.counter("receives_abandoned")
        self._trace = self.sim.telemetry.trace
        self._track = f"sdr.{dev.name}"

    # ------------------------------------------------------------------ wiring

    def info_get(self) -> SdrQpInfo:
        """Serializable connection info for the out-of-band exchange."""
        return SdrQpInfo(
            device=self.ctx.device.name,
            mtu=self.config.mtu_bytes,
            ctrl_qpn=self.ctrl_qp.qpn,
            data_qpns=[[qp.qpn for qp in row] for row in self.data_qps],
            root_rkey=self.root_table.rkey,
            chunk_bytes=self.config.chunk_bytes,
            max_message_bytes=self.config.max_message_bytes,
            generations=self.config.generations,
            channels=self.config.channels,
        )

    def connect(self, remote: SdrQpInfo) -> None:
        """``qp_connect``: wire all internal QPs to the remote SdrQp."""
        if self.connected:
            raise SdrStateError("SDR QP already connected")
        for name, mine, theirs in (
            ("chunk size", self.config.chunk_bytes, remote.chunk_bytes),
            ("max message", self.config.max_message_bytes, remote.max_message_bytes),
            ("generations", self.config.generations, remote.generations),
            ("channels", self.config.channels, remote.channels),
            ("MTU", self.config.mtu_bytes, remote.mtu),
        ):
            if mine != theirs:
                raise ConfigError(
                    f"SDR {name} mismatch: local {mine} vs remote {theirs}"
                )
        self.ctrl_qp.connect(
            QpInfo(device=remote.device, qpn=remote.ctrl_qpn, mtu=remote.mtu)
        )
        for g in range(self.config.generations):
            for c in range(self.config.channels):
                self.data_qps[g][c].connect(
                    QpInfo(
                        device=remote.device,
                        qpn=remote.data_qpns[g][c],
                        mtu=remote.mtu,
                    )
                )
        self._remote = remote
        self.connected = True
        self._cts_interval = max(self.ctx.channel_rtt_hint(), 1e-3)
        self.sim.call_in(0.0, self._cts_refresh)

    def attach_pacer(self, pacer) -> None:
        """Attach a :class:`repro.cc.Pacer` governing ``_inject_range``.

        Every packet post -- first transmissions and SR/EC retransmissions
        alike -- reserves its bytes from the pacer's token bucket and
        resumes the range after the returned wait, so injection is spaced
        at the attached controller's rate.  Pass ``None`` to detach.
        """
        self.pacer = pacer

    # ------------------------------------------------------------------ helpers

    def _slot_of(self, seq: int) -> tuple[int, int]:
        """Map a post-order sequence number to (msg_id, generation)."""
        msg_id = seq % self.config.max_message_ids
        generation = (seq // self.config.max_message_ids) % self.config.generations
        return msg_id, generation

    def _npackets(self, length: int) -> int:
        return -(-length // self.config.mtu_bytes)

    def _nchunks(self, length: int) -> int:
        return -(-length // self.config.chunk_bytes)

    # ------------------------------------------------------------------ send path

    def send_post(self, wr: SdrSendWr) -> SendHandle:
        """``send_post``: one-shot send of a contiguous message."""
        hdl = self._new_send_handle(wr)
        hdl.packets_posted = self._npackets(wr.length)
        hdl.bytes_posted = wr.length
        self.sim.call_in(
            0.0, self._inject_range, hdl, 0, wr.length, wr.payload, wr.user_imm, 0, True
        )
        return hdl

    def send_stream_start(self, wr: SdrSendWr) -> SendHandle:
        """``send_stream_start``: open a streaming send context.

        ``wr.length`` declares the size of the remote buffer (the matched
        receive); chunks are added with :meth:`send_stream_continue`.
        """
        hdl = self._new_send_handle(wr)
        hdl._stream_length = wr.length  # type: ignore[attr-defined]
        hdl._stream_user_imm = wr.user_imm  # type: ignore[attr-defined]
        return hdl

    def send_stream_continue(
        self,
        hdl: SendHandle,
        offset: int,
        length: int,
        payload: bytes | None = None,
        *,
        attempt: int = 0,
    ) -> None:
        """``send_stream_continue``: inject chunk(s) at ``offset``.

        ``offset`` must be MTU-aligned (chunks are multiples of the MTU);
        re-sending a previously sent range is legal and is how SR implements
        retransmission.  ``attempt`` tags the range's packets for lineage
        tracing (0 = first transmit, >= 1 = retransmission).
        """
        if hdl.ended:
            raise SdrStateError("stream already ended")
        stream_length = getattr(hdl, "_stream_length", None)
        if stream_length is None:
            raise SdrStateError("handle is not a streaming send")
        mtu = self.config.mtu_bytes
        if offset % mtu != 0:
            raise ConfigError(f"stream offset {offset} not MTU-aligned")
        if length <= 0 or offset + length > stream_length:
            raise ConfigError(
                f"range [{offset}, {offset + length}) outside stream of "
                f"{stream_length} B"
            )
        if payload is not None and len(payload) != length:
            raise ConfigError("payload length mismatch")
        npackets = self._npackets(length)
        hdl.packets_posted += npackets
        hdl.bytes_posted += length
        user_imm = getattr(hdl, "_stream_user_imm", None)
        self.sim.call_in(
            0.0, self._inject_range, hdl, offset, length, payload, user_imm, attempt
        )

    def send_stream_end(self, hdl: SendHandle) -> None:
        """``send_stream_end``: no further chunks will be added."""
        if hdl.ended:
            raise SdrStateError("stream already ended")
        hdl._on_end()
        if hdl.poll():
            # Every posted packet already left the NIC, so no later
            # injection CQE will come by to drop the handle.
            del self._send_handles[hdl.seq]

    def check_send(self, length: int) -> None:
        """Refuse now what ``send_stream_start`` would refuse of a send of
        ``length`` bytes: a QP not connected, or a message that is empty or
        longer than ``max_message_bytes``."""
        self._require_connected()
        if length <= 0:
            raise ConfigError(f"send length must be > 0, got {length}")
        if length > self.config.max_message_bytes:
            raise ConfigError(
                f"message of {length} B exceeds max message size "
                f"{self.config.max_message_bytes} B"
            )

    def _new_send_handle(self, wr: SdrSendWr) -> SendHandle:
        self.check_send(wr.length)
        if (
            wr.user_imm is not None
            and self._npackets(wr.length) < self.layout.user_fragments
        ):
            raise ConfigError(
                "user immediate needs at least "
                f"{self.layout.user_fragments} packets "
                f"({self.layout.user_imm_bits}-bit fragments); message has "
                f"{self._npackets(wr.length)}"
            )
        seq = self._send_seq
        self._send_seq += 1
        msg_id, generation = self._slot_of(seq)
        if seq and msg_id == 0:
            self._m_generation_rollovers.inc()
            if self._trace.enabled:
                self._trace.instant(
                    "generation_rollover", cat="sdr", track=self._track,
                    side="send", generation=generation,
                )
        hdl = SendHandle(self, seq, msg_id, generation)
        self._send_handles[seq] = hdl
        if seq <= self._cts_high:
            hdl.cts_event.succeed(None)
        else:
            self._cts_waiters.append(hdl)
        self._m_messages_sent.inc()
        return hdl

    def _inject_range(
        self, hdl: SendHandle, offset: int, length: int, payload: bytes | None,
        user_imm: int | None, attempt: int = 0, end: bool = False, _cts=None,
        sent: int = 0, stall: float = 0.0,
    ) -> None:
        """Issue one WRITE_ONLY_IMM per MTU packet in the byte range.

        Runs on its own dispatch, once the handle's clear-to-send is in.  A
        pacer stall parks the range: the call comes back ``stall`` seconds
        on with its cursor ``sent``, so concurrent ranges interleave across
        stalls.  ``end`` ends a one-shot send's stream after its last packet.
        """
        if not stall and not hdl.cts_event.triggered:
            hdl.cts_event.callbacks.append(partial(
                self._inject_range, hdl, offset, length, payload, user_imm,
                attempt, end,
            ))
            return
        assert self._remote is not None
        mtu = self.config.mtu_bytes
        ppc = self.config.packets_per_chunk
        base = hdl.msg_id * self.config.max_message_bytes
        qps = self.data_qps[hdl.generation]
        nch = len(qps)
        rkey = self._remote.root_rkey
        seq = hdl.seq
        while sent < length:
            byte_off = offset + sent
            flen = mtu if length - sent > mtu else length - sent
            pkt_idx = byte_off // mtu
            chunk = pkt_idx // ppc
            frag = (
                self.layout.user_fragment_of(user_imm, pkt_idx)
                if user_imm is not None
                else 0
            )
            imm = self.layout.encode(hdl.msg_id, pkt_idx, frag)
            frag_payload = None if payload is None else payload[sent : sent + flen]
            flow = None
            if attempt > 0 and (sent == 0 or pkt_idx % ppc == 0):
                flow = flow_key(hdl.seq, chunk, attempt)
            qp = qps[pkt_idx % nch]
            if stall:
                if self._trace.enabled:
                    # Emitted on wake so the instant lands at the *end* of
                    # the idle gap it explains (lineage classifies gaps by
                    # the trigger that ends them -> cc_wait).
                    self._trace.instant(
                        "cc_stall", cat="cc", track=self._track,
                        msg=hdl.seq, pkt=pkt_idx, chunk=chunk,
                        attempt=attempt, stall=stall,
                    )
                stall = 0.0
            elif self.pacer is not None:
                wait = self.pacer.reserve(flen, flow=qp.qpn)
                if wait > 0.0:
                    self.pacer.note_stall(wait)
                    self.sim.call_in(
                        wait, self._inject_range, hdl, offset, length, payload,
                        user_imm, attempt, end, None, sent, wait,
                    )
                    return
            qp.post_send(
                # (length, rkey, remote_offset, payload, immediate, wr_id,
                # signaled, msg_seq, pkt_idx, chunk, attempt, flow_id)
                SendWr(
                    flen, rkey, base + byte_off, frag_payload, imm, seq, True,
                    seq, pkt_idx, chunk, attempt, flow,
                )
            )
            sent += flen
        # Injection completions are counted on the send CQ; nothing to await here.
        if end:
            hdl._on_end()

    def _count_injected(self, wr_id: int) -> None:
        """Count an injection; retire the handle once its ``poll()`` holds."""
        hdl = self._send_handles[wr_id]
        hdl.packets_injected += 1
        if hdl.ended and hdl.packets_injected >= hdl.packets_posted:  # poll()
            hdl._maybe_finish()
            del self._send_handles[hdl.seq]

    # ------------------------------------------------------------------ recv path

    def recv_post(self, wr: SdrRecvWr) -> RecvHandle:
        """``recv_post``: post a receive buffer and send clear-to-send."""
        self._require_connected()
        if wr.length > self.config.max_message_bytes:
            raise ConfigError(
                f"receive of {wr.length} B exceeds max message size "
                f"{self.config.max_message_bytes} B"
            )
        if len(self._recv_table) >= self.config.inflight_messages:
            raise ResourceError(
                f"receive table full ({self.config.inflight_messages} in flight)"
            )
        seq = self._recv_seq
        msg_id, generation = self._slot_of(seq)
        if msg_id in self._recv_table:
            # Refused before the seq is taken: the next post gets this one.
            raise ResourceError(
                f"message ID {msg_id} wrapped around while still in flight"
            )
        self._recv_seq += 1
        if seq and msg_id == 0:
            self._m_generation_rollovers.inc()
            if self._trace.enabled:
                self._trace.instant(
                    "generation_rollover", cat="sdr", track=self._track,
                    side="recv", generation=generation,
                )
        npackets = self._npackets(wr.length)
        nchunks = self._nchunks(wr.length)
        hdl = RecvHandle(
            self,
            seq=seq,
            msg_id=msg_id,
            generation=generation,
            mr=wr.mr,
            mr_offset=wr.mr_offset,
            length=wr.length,
            npackets=npackets,
            nchunks=nchunks,
            packets_per_chunk=self.config.packets_per_chunk,
            layout=self.layout,
        )
        self._recv_table[msg_id] = hdl
        self.root_table.bind(msg_id, wr.mr, wr.mr_offset)
        self._cts_refresh_budget = 50
        if self._cts_idle:
            self._cts_idle = False
            self.sim.call_in(0.0, self._cts_refresh)
        # Slot reallocation (mkey update + bitmap cleanup) costs host time
        # before the CTS goes out -- the Section 5.4.1 small-message overhead.
        self.sim.call_in(REPOST_SECONDS, self._send_cts)
        self._m_messages_received.inc()
        return hdl

    def _send_cts(self) -> None:
        """Announce the highest posted receive seq (cumulative CTS)."""
        high = self._recv_seq - 1
        self._m_cts_sent.inc()
        if self._trace.enabled:
            self._trace.instant("cts", cat="sdr", track=self._track, high=high)
        self.ctrl_qp.post_send(
            SendWr(length=CTS_BYTES, immediate=high % (1 << 32), signaled=False)
        )

    def _cts_refresh(self, tick: bool = False) -> None:
        """Re-announce CTS periodically: repairs CTS drops on lossy paths.

        Goes idle while no receives are outstanding (``recv_post`` wakes it)
        so an idle QP leaves the simulator's heap empty (``run()`` drains).
        """
        if tick and self._recv_table and self._cts_refresh_budget > 0:
            self._cts_refresh_budget -= 1
            self._send_cts()
        if not self._recv_table or self._cts_refresh_budget <= 0:
            self._cts_idle = True
        else:
            self.sim.call_in(self._cts_interval, self._cts_refresh, True)

    def _on_ctrl(self, payload, immediate, src_qpn) -> None:
        high = int(immediate)
        if high > self._cts_high:
            self._cts_high = high
            ready = [h for h in self._cts_waiters if h.seq <= high]
            self._cts_waiters = [h for h in self._cts_waiters if h.seq > high]
            for hdl in ready:
                if not hdl.cts_event.triggered:
                    if self._trace.enabled:
                        self._trace.instant(
                            "cts_grant", cat="sdr", track=self._track,
                            msg=hdl.seq,
                        )
                    hdl.cts_event.succeed(None)

    def _validate_data_cqe(self, cqe: Cqe) -> tuple[RecvHandle, int, int] | None:
        """Decode + generation-check a data CQE; None if it must be dropped."""
        msg_id, pkt_idx, frag = self.layout.decode(cqe.immediate)
        hdl = self._recv_table.get(msg_id)
        if hdl is None or hdl.generation != cqe.generation or hdl.completed:
            # Stage-two late-packet filtering (stage one already discarded
            # the payload via the NULL mkey).
            self._m_late_cqes.value += 1
            if self._trace.enabled:
                self._trace.instant(
                    "late_cqe", cat="sdr", track=self._track,
                    msg_id=msg_id, generation=cqe.generation,
                )
            return None
        # ECN bookkeeping for the ACK echo path (repro.cc): counted here so
        # the staged (UD-emulation) receive path inherits it too.
        hdl.packets_seen += 1
        if cqe.ce:
            hdl.ce_packets += 1
        return hdl, pkt_idx, frag

    def _close_chunk(self, hdl: RecvHandle, pkt_idx: int) -> int:
        """Count and trace the chunk ``pkt_idx`` just closed; its index."""
        chunk = pkt_idx // hdl.packets_per_chunk
        self._m_chunks_completed.value += 1
        if self._trace.enabled:
            self._trace.instant(
                "chunk_close", cat="sdr", track=self._track,
                msg=hdl.seq, msg_id=hdl.msg_id, chunk=chunk,
            )
        return chunk

    def _record_packet(self, hdl: RecvHandle, pkt_idx: int, frag: int) -> bool:
        """Apply a validated packet to the bitmaps; publish chunk if closed."""
        closes = hdl._on_packet(pkt_idx, frag)
        if closes:
            self.sim.call_in(
                self.ctx.dpa_config.pcie_update_seconds, hdl._publish_chunk,
                self._close_chunk(hdl, pkt_idx),
            )
        return closes

    def _process_data_cqe(self, cqe: Cqe) -> "bool | tuple":
        """DPA worker handler: generation check + bitmap update (S3.4.2);
        a closing packet hands the worker its chunk-bitmap write."""
        validated = self._validate_data_cqe(cqe)
        if validated is None:
            return False
        hdl, pkt_idx, frag = validated
        if not hdl._on_packet(pkt_idx, frag):
            return False
        return hdl._publish_chunk, self._close_chunk(hdl, pkt_idx)

    def recv_abandon(self, hdl: RecvHandle) -> None:
        """Abandon an incomplete receive: free the slot, arm late protection.

        A reliability layer abandons a receive it gave up on; packets still
        in flight towards the slot die on the NULL mkey (stage one) or the
        generation/completed CQE filter (stage two).
        """
        if hdl.completed:
            raise SdrStateError(f"receive (seq={hdl.seq}) already completed")
        hdl.completed = True
        self._m_recv_abandoned.inc()
        if self._trace.enabled:
            self._trace.instant(
                "recv_abandon", cat="sdr", track=self._track,
                msg=hdl.seq, msg_id=hdl.msg_id,
                delivered=hdl.chunk_bitmap.count(),
            )
        self._on_recv_complete(hdl)

    def _on_recv_complete(self, hdl: RecvHandle) -> None:
        """Stage-one late protection: point the slot at the NULL mkey."""
        self.root_table.invalidate(hdl.msg_id)
        self._recv_table.pop(hdl.msg_id, None)

    def _require_connected(self) -> None:
        if not self.connected:
            raise SdrStateError("SDR QP is not connected")
