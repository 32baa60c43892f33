"""The wire unit exchanged between simulated NICs.

A :class:`Packet` corresponds to one RoCE frame.  The header fields mirror
the subset of the InfiniBand Base Transport Header the simulation needs:
destination QP number, packet sequence number, opcode, RDMA extended header
(remote key + offset) and the 32-bit immediate.

Payload handling: protocol-correctness tests carry real ``bytes`` so that
erasure decoding operates on genuine data; performance benchmarks carry only
``length`` (``payload=None``) because the paper's own DPA result hinges on
workers touching completions, not payloads (Section 5.4.2).
"""

from __future__ import annotations

import enum


class Opcode(enum.Enum):
    """RDMA opcodes the simulated transports understand."""

    UD_SEND = "ud_send"
    WRITE_ONLY = "write_only"          # single-packet RDMA Write
    WRITE_ONLY_IMM = "write_only_imm"  # single-packet Write-with-immediate
    WRITE_FIRST = "write_first"        # first packet of a multi-packet Write
    WRITE_MIDDLE = "write_middle"
    WRITE_LAST = "write_last"
    WRITE_LAST_IMM = "write_last_imm"
    ACK = "ack"                        # RC transport-level acknowledgment


class Packet:
    """One simulated wire packet.

    On the per-packet path, so the constructor is written by hand over
    ``__slots__`` (``docs/simulation.md``, "Hot-path records"): one call,
    the two validations, sixteen stores.  Hot sites pass positionally.
    """

    __slots__ = (
        "dst_qpn", "opcode", "psn", "rkey", "remote_offset", "length",
        "payload", "immediate", "src_qpn", "msg_seq", "pkt_idx", "chunk",
        "attempt", "flow_id", "ce", "uid",
    )

    def __init__(
        self,
        dst_qpn: int,
        opcode: Opcode,
        psn: int = 0,
        rkey: int = 0,
        remote_offset: int = 0,
        length: int = 0,
        payload: bytes | None = None,
        immediate: int | None = None,
        src_qpn: int = 0,
        msg_seq: int | None = None,
        pkt_idx: int | None = None,
        chunk: int | None = None,
        attempt: int = 0,
        flow_id: int | None = None,
        ce: bool = False,
        uid: int | None = None,
    ):
        if payload is not None and len(payload) != length:
            raise ValueError(
                f"payload length {len(payload)} != declared {length}"
            )
        if immediate is not None and not 0 <= immediate < 2**32:
            raise ValueError(f"immediate must fit 32 bits, got {immediate}")
        self.dst_qpn = dst_qpn
        self.opcode = opcode
        self.psn = psn
        #: RDMA extended header: key identifying the remote (possibly
        #: indirect) memory region and the byte offset to write at.
        self.rkey = rkey
        self.remote_offset = remote_offset
        #: Payload length on the wire in bytes (headers are not modeled).
        self.length = length
        #: Actual payload bytes, or None when only timing matters.
        self.payload = payload
        #: 32-bit immediate data (present for *_IMM and UD_SEND opcodes).
        self.immediate = immediate
        self.src_qpn = src_qpn
        #: Lineage correlation key (sender-side SDR post-order sequence
        #: number).  None for packets outside the SDR data path (control
        #: datagrams, RC baseline traffic).  See ``repro.telemetry.lineage``.
        self.msg_seq = msg_seq
        #: Packet index within the SDR message (MTU units).
        self.pkt_idx = pkt_idx
        #: Chunk index within the SDR message (``pkt_idx // packets_per_chunk``).
        self.chunk = chunk
        #: Transmission attempt for this byte range: 0 = first transmit,
        #: >= 1 = retransmission.
        self.attempt = attempt
        #: Deterministic flow-event id linking a retransmit trigger (RTO
        #: fire, NACK) to the retransmitted wire packet; set on the first
        #: packet of a retransmitted chunk only.
        self.flow_id = flow_id
        #: ECN Congestion Experienced: set by a channel whose backlog crossed
        #: ``ChannelConfig.ecn_threshold_bytes`` at enqueue time; echoed back
        #: to the sender through the reliability ACK path (see ``repro.cc``).
        self.ce = ce
        #: Identity within one simulation, drawn from the owning
        #: ``Simulator.packet_uid()`` by whatever builds the packet (what
        #: ``FabricNetwork`` keys packets in transit by); None for a packet
        #: built outside a simulation.
        self.uid = uid

    @property
    def carries_immediate(self) -> bool:
        return self.opcode in (
            Opcode.WRITE_ONLY_IMM,
            Opcode.WRITE_LAST_IMM,
            Opcode.UD_SEND,
        )
