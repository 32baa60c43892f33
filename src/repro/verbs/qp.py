"""Simulated queue pairs: UC, UD and an RC/Go-Back-N baseline.

The Unreliable Connected QP implements the ePSN semantics that drive the
paper's Section 3.2.1 design discussion: a multi-packet Write whose packets
arrive out of sequence is aborted (no completion ever fires, even though
early packets were already placed), while FIRST/ONLY packets resynchronize
the expected PSN.  This is why SDR issues one Write-with-immediate *per
packet* -- and the test suite demonstrates both behaviours against this QP.

The Reliable Connected QP is the commodity-NIC baseline: in-order delivery
with cumulative ACKs, NAK-on-gap and Go-Back-N retransmission, which is how
ConnectX-class ASICs recover losses.
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigError, SdrStateError
from repro.net.channel import Channel
from repro.net.packet import Opcode, Packet
from repro.sim.engine import Simulator
from repro.verbs.cq import CompletionQueue, Cqe, CqeStatus
from repro.verbs.device import Device


#: Positional ``Cqe(...)`` / ``Packet(...)`` calls below follow the field
#: order of the two records; these are the constants they pass.  ``_record``
#: builds a per-packet ``Cqe`` (all twelve fields) without the namedtuple frame.
_record = tuple.__new__
_SUCCESS = CqeStatus.SUCCESS
_UD_SEND = Opcode.UD_SEND
_WRITE_ONLY = Opcode.WRITE_ONLY
_WRITE_ONLY_IMM = Opcode.WRITE_ONLY_IMM
_WRITE_FIRST = Opcode.WRITE_FIRST
_WRITE_MIDDLE = Opcode.WRITE_MIDDLE
_WRITE_LAST = Opcode.WRITE_LAST
_WRITE_LAST_IMM = Opcode.WRITE_LAST_IMM
#: The Write opcodes whose packet carries the WR's immediate.
_IMM_WRITES = frozenset({_WRITE_ONLY_IMM, _WRITE_LAST_IMM})


class QpState(enum.Enum):
    RESET = "reset"
    READY = "ready"  # connected, send+receive enabled
    ERROR = "error"


class SendWr:
    """A send work request (RDMA Write, optionally with immediate).

    One per SDR packet, so the constructor is written by hand over
    ``__slots__`` (``docs/simulation.md``, "Hot-path records").
    """

    __slots__ = (
        "length", "rkey", "remote_offset", "payload", "immediate", "wr_id",
        "signaled", "msg_seq", "pkt_idx", "chunk", "attempt", "flow_id",
    )

    def __init__(
        self,
        length: int,
        rkey: int = 0,
        remote_offset: int = 0,
        payload: bytes | None = None,
        immediate: int | None = None,
        wr_id: int | None = None,
        signaled: bool = True,
        msg_seq: int | None = None,
        pkt_idx: int | None = None,
        chunk: int | None = None,
        attempt: int = 0,
        flow_id: int | None = None,
    ):
        if length <= 0:
            raise ConfigError(f"WR length must be > 0, got {length}")
        if payload is not None and len(payload) != length:
            raise ConfigError(
                f"payload length {len(payload)} != WR length {length}"
            )
        self.length = length
        self.rkey = rkey
        self.remote_offset = remote_offset
        self.payload = payload
        self.immediate = immediate
        self.wr_id = wr_id
        self.signaled = signaled
        #: Lineage correlation key (see ``repro.telemetry.lineage``): the SDR
        #: post-order message sequence, packet/chunk indices within that
        #: message and the transmission attempt.  Stamped onto every wire
        #: packet and copied into the resulting CQEs; None outside the SDR
        #: data path.
        self.msg_seq = msg_seq
        self.pkt_idx = pkt_idx
        self.chunk = chunk
        self.attempt = attempt
        self.flow_id = flow_id


@dataclass
class QpInfo:
    """Out-of-band connection blob (the ``qp_info_get`` exchange)."""

    device: str
    qpn: int
    mtu: int


class BaseQp:
    """State shared by all QP flavours."""

    def __init__(
        self,
        device: Device,
        *,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        generation: int = 0,
    ):
        self.device = device
        self.sim: Simulator = device.sim
        self.qpn = device.alloc_qpn()
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.generation = generation
        self.state = QpState.RESET
        self.channel: Optional[Channel] = None
        self._mtu: int | None = None  # the channel's, fixed at connect
        self.dst_qpn = 0
        self.peer_device = ""
        device.register_qp(self)
        self._metrics = self.sim.telemetry.metrics.scope(
            f"verbs.{device.name}.qp{self.qpn}"
        )
        self._trace = self.sim.telemetry.trace
        self._track = f"verbs.{device.name}.qp{self.qpn}"

    def info(self) -> QpInfo:
        return QpInfo(device=self.device.name, qpn=self.qpn, mtu=self.mtu)

    @property
    def mtu(self) -> int:
        if self._mtu is not None:
            return self._mtu
        # Not yet connected: report the device's first link MTU if any.
        peers = self.device.peers
        if peers:
            return self.device.link_to(peers[0]).config.mtu_bytes
        raise SdrStateError("QP has no connected link; MTU unknown")

    def connect(self, remote: QpInfo) -> None:
        """Wire this QP to the remote QP described by ``remote``."""
        if self.state is not QpState.RESET:
            raise SdrStateError(f"QP {self.qpn} already connected")
        self.peer_device = remote.device
        self.dst_qpn = remote.qpn
        self.channel = self.device.link_to(remote.device)
        self._mtu = self.channel.config.mtu_bytes
        self.state = QpState.READY

    def on_packet(self, packet: Packet) -> None:
        """Take one packet the device demultiplexed to this QP."""

    def _require_ready(self) -> None:
        if self.state is not QpState.READY:
            raise SdrStateError(f"QP {self.qpn} not in READY state ({self.state})")

    def _place(self, packet: Packet) -> None:
        """Apply the packet's RDMA Write to receiver memory."""
        self.device.lookup_mkey(packet.rkey).write(
            packet.remote_offset, packet.length, packet.payload
        )


class UcQp(BaseQp):
    """Unreliable Connected QP with faithful ePSN semantics."""

    def __init__(self, device: Device, **kw):
        super().__init__(device, **kw)
        self._sq: deque[SendWr] = deque()
        self._sq_psn = 0
        self._epsn = 0
        self._dropping = False
        self._in_message = False
        self._msg_bytes = 0
        #: False while a ``_drive`` entry is on the heap.  The pump's first
        #: dispatch is scheduled here, as the generator's boot was.
        self._parked = False
        self.sim.call_in(0.0, self._drive)
        self._m_aborted = self._metrics.counter("messages_aborted")
        #: Set (by :class:`~repro.sdr.qp.SdrQp`), a signaled send's
        #: completion is counted on the send CQ and handed over as
        #: ``_wr_counter(wr_id)``: no :class:`Cqe` is built or queued.
        self._wr_counter: Callable[[int], None] | None = None

    @property
    def messages_aborted(self) -> int:
        """Messages aborted at the receiver due to a PSN mismatch."""
        return self._m_aborted.value

    # -- send side --------------------------------------------------------------

    def post_send(self, wr: SendWr) -> None:
        if self.state is not QpState.READY:
            self._require_ready()  # raises
        self._sq.append(wr)
        if self._parked:
            self._parked = False
            self.sim.call_in(0.0, self._drive)

    def _drive(self, wr: SendWr | None = None, i: int = 0, sent: int = 0) -> None:
        """The send pump: fragment WRs into MTU packets, pace them onto the wire.

        One callback entry per wake-up and per serialisation wait, each made
        where the generator pump made its ``Event`` (same ``_seq``).  Entered
        with ``wr`` to resume that WR at fragment ``i``, ``sent`` bytes in.
        """
        sim = self.sim
        channel = self.channel
        while True:
            if wr is None:
                if not self._sq:
                    self._parked = True
                    return
                wr = self._sq.popleft()
                i = sent = 0
            assert channel is not None
            mtu = self._mtu
            length = wr.length
            nfrag = -(-length // mtu)  # >= 1: SendWr rejects length <= 0
            while i < nfrag:
                flen = mtu if length - sent > mtu else length - sent
                # The WR's immediate rides its last (or only) packet.
                imm = wr.immediate if i == nfrag - 1 else None
                if nfrag == 1:
                    op = _WRITE_ONLY if imm is None else _WRITE_ONLY_IMM
                elif i == 0:
                    op = _WRITE_FIRST
                elif i == nfrag - 1:
                    op = _WRITE_LAST if imm is None else _WRITE_LAST_IMM
                else:
                    op = _WRITE_MIDDLE
                pkt = Packet(
                    self.dst_qpn,
                    op,
                    self._sq_psn,
                    wr.rkey,
                    wr.remote_offset + sent,
                    flen,
                    None if wr.payload is None else wr.payload[sent : sent + flen],
                    imm,
                    self.qpn,
                    wr.msg_seq,
                    wr.pkt_idx,
                    wr.chunk,
                    wr.attempt,
                    wr.flow_id if i == 0 else None,
                    False,
                    sim.packet_uid(),
                )
                self._sq_psn = (self._sq_psn + 1) % (1 << 24)
                done = channel.transmit(pkt)
                sent += flen
                i += 1
                if done > sim.now:
                    # call_at(done) lands on now + (done - now), the instant
                    # timeout(done - now) did.
                    sim.call_at(done, self._drive, wr, i, sent)
                    return
            if wr.signaled:
                if self._wr_counter is None:
                    self.send_cq.push(_record(Cqe, (
                        self.qpn, _WRITE_ONLY, length, sim.now, None, wr.wr_id,
                        _SUCCESS, self.generation, wr.msg_seq, wr.pkt_idx,
                        wr.chunk, False,
                    )))
                else:
                    self.send_cq.count_consumed()
                    self._wr_counter(wr.wr_id)
            wr = None

    # -- receive side ------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        op = packet.opcode
        if op is _WRITE_ONLY_IMM or op is _WRITE_ONLY:
            # Single-packet message: always resynchronizes.
            if self._in_message:
                self._abort_partial()
            self._epsn = (packet.psn + 1) % (1 << 24)
            self._place(packet)
            if op is _WRITE_ONLY_IMM:
                self._complete(packet, packet.length)
            return
        if op is _WRITE_FIRST:
            if self._in_message:
                self._abort_partial()
            self._dropping = False
            self._in_message = True
            self._epsn = (packet.psn + 1) % (1 << 24)
            self._msg_bytes = packet.length
            self._place(packet)
            return
        if op is _WRITE_MIDDLE or op is _WRITE_LAST or op is _WRITE_LAST_IMM:
            if self._dropping or not self._in_message or packet.psn != self._epsn:
                # ePSN mismatch: the entire in-flight message is lost.
                if self._in_message:
                    self._abort_partial()
                self._dropping = True
                return
            self._epsn = (packet.psn + 1) % (1 << 24)
            self._msg_bytes += packet.length
            self._place(packet)
            if op is not _WRITE_MIDDLE:
                total, self._msg_bytes = self._msg_bytes, 0
                self._in_message = False
                if op is _WRITE_LAST_IMM:
                    self._complete(packet, total)
            return
        # UC QPs ignore foreign opcodes (e.g. stray ACKs).

    def _abort_partial(self) -> None:
        """Drop the message in flight; called only while ``_in_message``."""
        self._m_aborted.value += 1
        if self._trace.enabled:
            self._trace.instant(
                "psn_abort", cat="verbs", track=self._track,
                expected_psn=self._epsn,
            )
        self._in_message = False
        self._msg_bytes = 0

    def _complete(self, packet: Packet, byte_len: int) -> None:
        self.recv_cq.push(_record(Cqe, (
            self.qpn, packet.opcode, byte_len, self.sim.now, packet.immediate,
            None, _SUCCESS, self.generation, packet.msg_seq, packet.pkt_idx,
            packet.chunk, packet.ce,
        )))


class UdQp(BaseQp):
    """Unreliable Datagram QP: two-sided, single-packet messages."""

    def __init__(self, device: Device, **kw):
        super().__init__(device, **kw)
        self._sq: deque[tuple[SendWr, int, str]] = deque()
        self._parked = False  # as in UcQp
        self.sim.call_in(0.0, self._drive)
        self._recv_handler = None

    def attach_recv_handler(self, handler) -> None:
        """Deliver inbound datagrams to ``handler(payload, immediate, src)``.

        The control-path protocols consume datagrams directly rather than
        via posted buffers; this mirrors an eagerly-reposted receive queue.
        """
        self._recv_handler = handler

    def post_send_to(self, wr: SendWr, dst_qpn: int, dst_device: str) -> None:
        """Send a datagram to an arbitrary destination (UD is connectionless)."""
        if wr.length > self.device.link_to(dst_device).config.mtu_bytes:
            raise ConfigError(
                f"UD datagram of {wr.length} B exceeds the path MTU"
            )
        self._sq.append((wr, dst_qpn, dst_device))
        if self._parked:
            self._parked = False
            self.sim.call_in(0.0, self._drive)

    def post_send(self, wr: SendWr) -> None:
        """Send to the connected peer (convenience for pseudo-connected use)."""
        self._require_ready()
        self.post_send_to(wr, self.dst_qpn, self.peer_device)

    def _drive(self, wr: SendWr | None = None) -> None:
        """The send pump (see :meth:`UcQp._drive`); ``wr`` is a datagram on the wire."""
        sim = self.sim
        while True:
            if wr is None:
                if not self._sq:
                    self._parked = True
                    return
                wr, dst_qpn, dst_device = self._sq.popleft()
                channel = self.device.link_to(dst_device)
                pkt = Packet(
                    dst_qpn, _UD_SEND, 0, 0, 0, wr.length, wr.payload,
                    wr.immediate, self.qpn, None, None, None, 0, None, False,
                    sim.packet_uid(),
                )
                done = channel.transmit(pkt)
                if done > sim.now:
                    sim.call_at(done, self._drive, wr)
                    return
            if wr.signaled:
                self.send_cq.push(
                    Cqe(
                        self.qpn, _UD_SEND, wr.length, sim.now, None, wr.wr_id
                    )
                )
            wr = None

    def on_packet(self, packet: Packet) -> None:
        if self._recv_handler is not None:
            # The handler consumes the datagram here and now: its completion
            # is counted, not queued on a CQ that nothing would ever poll.
            self.recv_cq.count_consumed()
            self._recv_handler(packet.payload, packet.immediate, packet.src_qpn)
        else:
            self.recv_cq.push(
                Cqe(
                    self.qpn, _UD_SEND, packet.length, self.sim.now,
                    packet.immediate,
                )
            )


@dataclass
class _RcPacketDesc:
    """Layout of one RC wire packet so Go-Back-N can rebuild it."""

    wr_index: int
    offset_in_wr: int
    length: int
    opcode: Opcode
    last_of_wr: bool


class RcQp(BaseQp):
    """Reliable Connected QP with Go-Back-N (the commodity-NIC baseline).

    The receiver delivers strictly in order, ACKs cumulatively (coalescing up
    to ``ACK_EVERY`` packets) and NAKs the expected PSN on a sequence gap;
    the sender retransmits from the lowest unacknowledged PSN on NAK or on
    retransmission timeout.

    Its send pump is a ``_drive`` callback like :class:`UcQp`'s, parked
    on window credit (an ACK or a rewind wakes it) as well as on the wire.
    """

    ACK_BYTES = 64  # wire footprint of an ACK/NAK frame
    ACK_EVERY = 16  # packets one cumulative ACK covers at most

    def __init__(self, device: Device, *, window_packets: int = 1024, **kw):
        super().__init__(device, **kw)
        if window_packets <= 0:
            raise ConfigError(f"window must be > 0, got {window_packets}")
        self.window_packets = window_packets
        # Sender state.
        self._wrs: list[SendWr] = []
        self._descs: list[_RcPacketDesc] = []
        self._snd_una = 0
        self._snd_nxt = 0
        self._built = 0
        self._parked = False  # set while the pump waits for a _kick
        self.sim.call_in(0.0, self._drive)
        self._timer_armed_at: float | None = None
        # Receiver state.
        self._epsn = 0
        self._nak_sent_for = -1
        self._unacked_rx = 0
        self._m_retransmissions = self._metrics.counter("retransmissions")
        self._m_naks_sent = self._metrics.counter("naks_sent")
        self._m_rto_rewinds = self._metrics.counter("rto_rewinds")

    @property
    def retransmissions(self) -> int:
        """Packets re-sent by a Go-Back-N rewind (registry-backed)."""
        return self._m_retransmissions.value

    @property
    def naks_sent(self) -> int:
        """NAK frames the receive side emitted on a sequence gap."""
        return self._m_naks_sent.value

    # -- configuration -----------------------------------------------------------

    def _effective_rto(self) -> float:
        assert self.channel is not None
        cfg = self.channel.config
        # The timeout must cover both the propagation RTO and the ACK
        # coalescing interval (ACK_EVERY packets of serialization), or a
        # short-RTT link would rewind spuriously between coalesced ACKs.
        coalesce = 4.0 * self.ACK_EVERY * cfg.packet_time()
        return max(cfg.rtt * (1.0 + cfg.alpha), coalesce + cfg.rtt)

    # -- send side ----------------------------------------------------------------

    def post_send(self, wr: SendWr) -> None:
        self._require_ready()
        assert self.channel is not None
        mtu = self.channel.config.mtu_bytes
        wr_index = len(self._wrs)
        self._wrs.append(wr)
        nfrag = max(1, -(-wr.length // mtu))
        sent = 0
        for i in range(nfrag):
            flen = min(mtu, wr.length - sent)
            if nfrag == 1:
                op = (
                    Opcode.WRITE_ONLY_IMM
                    if wr.immediate is not None
                    else Opcode.WRITE_ONLY
                )
            elif i == 0:
                op = Opcode.WRITE_FIRST
            elif i == nfrag - 1:
                op = (
                    Opcode.WRITE_LAST_IMM
                    if wr.immediate is not None
                    else Opcode.WRITE_LAST
                )
            else:
                op = Opcode.WRITE_MIDDLE
            self._descs.append(
                _RcPacketDesc(
                    wr_index=wr_index,
                    offset_in_wr=sent,
                    length=flen,
                    opcode=op,
                    last_of_wr=(i == nfrag - 1),
                )
            )
            sent += flen
        self._kick()

    def _kick(self) -> None:
        if self._parked:
            self._parked = False
            self.sim.call_in(0.0, self._drive)

    def _drive(self) -> None:
        """The send pump: one packet per serialisation wait while the window allows."""
        while (
            self._snd_nxt < len(self._descs)
            and self._snd_nxt - self._snd_una < self.window_packets
        ):
            psn = self._snd_nxt
            self._snd_nxt += 1
            if psn < self._built:
                self._m_retransmissions.inc()
            else:
                self._built = psn + 1
            desc = self._descs[psn]
            wr = self._wrs[desc.wr_index]
            payload = (
                None
                if wr.payload is None
                else wr.payload[desc.offset_in_wr : desc.offset_in_wr + desc.length]
            )
            pkt = Packet(
                dst_qpn=self.dst_qpn,
                src_qpn=self.qpn,
                opcode=desc.opcode,
                psn=psn,
                rkey=wr.rkey,
                remote_offset=wr.remote_offset + desc.offset_in_wr,
                length=desc.length,
                payload=payload,
                immediate=wr.immediate if desc.opcode in _IMM_WRITES else None,
                uid=self.sim.packet_uid(),
            )
            assert self.channel is not None
            done = self.channel.transmit(pkt)
            self._arm_timer()
            if done > self.sim.now:
                self.sim.call_at(done, self._drive)
                return
        self._parked = True

    def _arm_timer(self) -> None:
        if self._timer_armed_at is not None:
            return
        self._timer_armed_at = self.sim.now
        snapshot = self._snd_una
        rto = self._effective_rto()

        def _expire() -> None:
            self._timer_armed_at = None
            if self._snd_una >= len(self._descs) and self._snd_una == self._snd_nxt:
                return  # everything acked
            if self._snd_una == snapshot:
                # No progress within RTO: Go-Back-N rewind.
                self._m_rto_rewinds.inc()
                if self._trace.enabled:
                    self._trace.instant(
                        "rto_rewind", cat="verbs", track=self._track,
                        snd_una=self._snd_una, snd_nxt=self._snd_nxt,
                    )
                self._snd_nxt = self._snd_una
                self._kick()
            if self._snd_una < self._snd_nxt or self._snd_una < len(self._descs):
                self._arm_timer()

        self.sim.call_in(rto, _expire)

    def _on_ack(self, acked_psn: int, is_nak: bool) -> None:
        new_una = acked_psn + 1
        if new_una > self._snd_una:
            for psn in range(self._snd_una, new_una):
                desc = self._descs[psn]
                if desc.last_of_wr:
                    wr = self._wrs[desc.wr_index]
                    if wr.signaled:
                        self.send_cq.push(
                            Cqe(
                                qpn=self.qpn,
                                opcode=Opcode.WRITE_ONLY,
                                byte_len=wr.length,
                                timestamp=self.sim.now,
                                wr_id=wr.wr_id,
                            )
                        )
            self._snd_una = new_una
            self._timer_armed_at = None
            if self._snd_una < len(self._descs):
                self._arm_timer()
            self._kick()
        if is_nak and self._snd_nxt > self._snd_una:
            self._snd_nxt = self._snd_una
            self._kick()

    # -- receive side ---------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        if packet.opcode is Opcode.ACK:
            # rkey carries the NAK flag on ACK frames (see _send_ack).
            self._on_ack(packet.psn, is_nak=bool(packet.rkey))
            return
        if packet.psn == self._epsn:
            self._epsn += 1
            self._nak_sent_for = -1
            self._place(packet)
            self._unacked_rx += 1
            boundary = packet.opcode in (
                Opcode.WRITE_ONLY,
                Opcode.WRITE_ONLY_IMM,
                Opcode.WRITE_LAST,
                Opcode.WRITE_LAST_IMM,
            )
            if packet.carries_immediate:
                self.recv_cq.push(
                    Cqe(
                        qpn=self.qpn,
                        opcode=packet.opcode,
                        byte_len=packet.length,
                        timestamp=self.sim.now,
                        immediate=packet.immediate,
                    )
                )
            if boundary or self._unacked_rx >= self.ACK_EVERY:
                self._send_ack(self._epsn - 1, nak=False)
                self._unacked_rx = 0
        elif packet.psn > self._epsn:
            # Sequence gap: NAK the expected PSN once.  A frame acknowledges
            # PSNs up to its own, so before PSN 0 lands there is nothing to
            # NAK with: the sender's RTO rewinds to PSN 0 instead.
            if self._nak_sent_for != self._epsn and self._epsn > 0:
                self._nak_sent_for = self._epsn
                self._m_naks_sent.inc()
                if self._trace.enabled:
                    self._trace.instant(
                        "nak", cat="verbs", track=self._track,
                        expected_psn=self._epsn, got_psn=packet.psn,
                    )
                self._send_ack(self._epsn - 1, nak=True)
        else:
            # Duplicate from a rewind: re-ACK current progress.
            self._send_ack(self._epsn - 1, nak=False)

    def _send_ack(self, psn: int, *, nak: bool) -> None:
        channel = self.device.link_to(self.peer_device)
        channel.transmit(
            Packet(
                dst_qpn=self.dst_qpn,
                src_qpn=self.qpn,
                opcode=Opcode.ACK,
                psn=psn,
                rkey=1 if nak else 0,
                length=self.ACK_BYTES,
                uid=self.sim.packet_uid(),
            )
        )
