"""Transport-immediate encoding (10+18+4 split and alternatives)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SdrConfig
from repro.common.errors import ConfigError
from repro.sdr.imm import ImmLayout, UserImmAssembler


class TestLayout:
    def test_default_split_capacities(self):
        layout = ImmLayout()
        assert 1 << layout.msg_id_bits == 1024
        assert 1 << layout.offset_bits == 2**18
        assert layout.user_fragments == 8

    def test_alternative_split(self):
        layout = ImmLayout(msg_id_bits=8, offset_bits=22, user_imm_bits=2)
        assert 1 << layout.msg_id_bits == 256
        assert 1 << layout.offset_bits == 2**22
        assert layout.user_fragments == 16

    def test_split_must_total_32(self):
        with pytest.raises(ConfigError):
            ImmLayout(msg_id_bits=10, offset_bits=10, user_imm_bits=4)

    def test_from_config(self):
        layout = ImmLayout.from_config(SdrConfig())
        assert layout.msg_id_bits == 10

    def test_encode_decode_example(self):
        layout = ImmLayout()
        imm = layout.encode(513, 100000, 9)
        assert imm < 2**32
        assert layout.decode(imm) == (513, 100000, 9)

    def test_field_overflow_rejected(self):
        layout = ImmLayout()
        with pytest.raises(ConfigError):
            layout.encode(1024, 0, 0)
        with pytest.raises(ConfigError):
            layout.encode(0, 2**18, 0)
        with pytest.raises(ConfigError):
            layout.encode(0, 0, 16)

    def test_decode_overflow_rejected(self):
        with pytest.raises(ConfigError):
            ImmLayout().decode(2**32)


@settings(max_examples=200)
@given(
    msg_id=st.integers(0, 1023),
    pkt=st.integers(0, 2**18 - 1),
    frag=st.integers(0, 15),
)
def test_property_roundtrip(msg_id, pkt, frag):
    layout = ImmLayout()
    assert layout.decode(layout.encode(msg_id, pkt, frag)) == (msg_id, pkt, frag)


@settings(max_examples=100)
@given(user_imm=st.integers(0, 2**32 - 1), start=st.integers(0, 1000))
def test_property_user_imm_reconstruction(user_imm, start):
    """Any window of user_fragments consecutive packets rebuilds the imm."""
    layout = ImmLayout()
    asm = UserImmAssembler(layout)
    for j in range(start, start + layout.user_fragments):
        asm.feed(j, layout.user_fragment_of(user_imm, j))
    assert asm.ready
    assert asm.value() == user_imm


class TestAssembler:
    def test_not_ready_until_all_fragments(self):
        layout = ImmLayout()
        asm = UserImmAssembler(layout)
        for j in range(layout.user_fragments - 1):
            asm.feed(j, layout.user_fragment_of(0xDEADBEEF, j))
        assert not asm.ready
        with pytest.raises(ConfigError):
            asm.value()

    def test_duplicate_fragments_harmless(self):
        layout = ImmLayout()
        asm = UserImmAssembler(layout)
        for _ in range(3):
            for j in range(layout.user_fragments):
                asm.feed(j, layout.user_fragment_of(0x12345678, j))
        assert asm.value() == 0x12345678
