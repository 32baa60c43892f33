"""Packet invariants."""

import pytest

from repro.net.packet import Opcode, Packet
from repro.sim.engine import Simulator


class TestPacket:
    def test_payload_length_must_match(self):
        with pytest.raises(ValueError):
            Packet(dst_qpn=1, opcode=Opcode.WRITE_ONLY, length=4, payload=b"abcde")

    def test_immediate_must_fit_32_bits(self):
        with pytest.raises(ValueError):
            Packet(
                dst_qpn=1,
                opcode=Opcode.WRITE_ONLY_IMM,
                length=4,
                immediate=2**32,
            )

    def test_uids_are_unique(self):
        sim = Simulator()
        a = Packet(dst_qpn=1, opcode=Opcode.WRITE_ONLY, length=1, uid=sim.packet_uid())
        b = Packet(dst_qpn=1, opcode=Opcode.WRITE_ONLY, length=1, uid=sim.packet_uid())
        assert a.uid != b.uid

    def test_uids_restart_with_every_simulator(self):
        # No process-global counter: a second simulation in the same
        # process numbers its packets as the first did.
        first, second = Simulator(), Simulator()
        assert [first.packet_uid() for _ in range(3)] == [0, 1, 2]
        assert [second.packet_uid() for _ in range(3)] == [0, 1, 2]

    def test_packet_built_outside_a_simulation_has_no_uid(self):
        assert Packet(dst_qpn=1, opcode=Opcode.WRITE_ONLY, length=1).uid is None

    def test_positional_order_is_the_slot_order(self):
        # Hot sites build packets positionally (docs/simulation.md).
        p = Packet(1, Opcode.WRITE_ONLY_IMM, 2, 3, 4, 5, b"hello", 6, 7, 8, 9, 10,
                   11, 12, True, 13)
        assert [getattr(p, name) for name in Packet.__slots__] == [
            1, Opcode.WRITE_ONLY_IMM, 2, 3, 4, 5, b"hello", 6, 7, 8, 9, 10, 11,
            12, True, 13,
        ]

    @pytest.mark.parametrize(
        "opcode,carries",
        [
            (Opcode.WRITE_ONLY, False),
            (Opcode.WRITE_ONLY_IMM, True),
            (Opcode.WRITE_LAST_IMM, True),
            (Opcode.WRITE_LAST, False),
            (Opcode.UD_SEND, True),
            (Opcode.ACK, False),
        ],
    )
    def test_carries_immediate(self, opcode, carries):
        p = Packet(dst_qpn=1, opcode=opcode, length=1)
        assert p.carries_immediate is carries
