"""Transport-immediate encoding (Section 3.2.4 of the paper).

Every SDR wire packet is a Write-with-immediate whose 32-bit immediate is
split into three fields::

    | msg_id (10b) | packet offset (18b) | user-imm fragment (4b) |

The split is configurable (``SdrConfig``): the paper notes 8+22+2 as an
alternative supporting larger messages.  The *packet offset* is expressed in
MTic units (packet index within the message), supporting 1 GiB messages at a
4 KiB MTU with 18 bits.  The user-immediate fragments let the sender smuggle
a full 32-bit application immediate across ``ceil(32 / user_imm_bits)``
packets of the message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.config import Bounded, SdrConfig, bound, check_bounds
from repro.common.errors import ConfigError


@dataclass(frozen=True)
class ImmLayout(Bounded):
    """Encoder/decoder for the three-field transport immediate."""

    msg_id_bits: int = field(default=10, metadata=bound(gt=0))
    offset_bits: int = field(default=18, metadata=bound(gt=0))
    user_imm_bits: int = field(default=4, metadata=bound(ge=0))

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.msg_id_bits + self.offset_bits + self.user_imm_bits != 32:
            raise ConfigError(
                "immediate fields must total 32 bits, got "
                f"{self.msg_id_bits}+{self.offset_bits}+{self.user_imm_bits}"
            )

    @classmethod
    def from_config(cls, config: SdrConfig) -> "ImmLayout":
        return cls(
            msg_id_bits=config.msg_id_bits,
            offset_bits=config.offset_bits,
            user_imm_bits=config.user_imm_bits,
        )

    @property
    def max_msg_ids(self) -> int:
        return 1 << self.msg_id_bits

    @property
    def max_packet_index(self) -> int:
        return 1 << self.offset_bits

    @property
    def user_fragments(self) -> int:
        """Packets needed to reconstruct a 32-bit user immediate."""
        if self.user_imm_bits == 0:
            return 0
        return math.ceil(32 / self.user_imm_bits)

    def encode(self, msg_id: int, packet_index: int, user_fragment: int = 0) -> int:
        """Pack the three fields into one 32-bit immediate."""
        if not 0 <= msg_id < 1 << self.msg_id_bits:
            raise ConfigError(f"msg_id {msg_id} exceeds {self.msg_id_bits} bits")
        if not 0 <= packet_index < 1 << self.offset_bits:
            raise ConfigError(
                f"packet index {packet_index} exceeds {self.offset_bits} bits"
            )
        if not 0 <= user_fragment < (1 << self.user_imm_bits or 1):
            raise ConfigError(
                f"user fragment {user_fragment} exceeds {self.user_imm_bits} bits"
            )
        return (
            (msg_id << (self.offset_bits + self.user_imm_bits))
            | (packet_index << self.user_imm_bits)
            | user_fragment
        )

    def decode(self, immediate: int) -> tuple[int, int, int]:
        """Unpack an immediate into (msg_id, packet_index, user_fragment)."""
        if not 0 <= immediate < 2**32:
            raise ConfigError(f"immediate must fit 32 bits, got {immediate}")
        user_mask = (1 << self.user_imm_bits) - 1
        offset_mask = (1 << self.offset_bits) - 1
        frag = immediate & user_mask
        pkt = (immediate >> self.user_imm_bits) & offset_mask
        msg = immediate >> (self.offset_bits + self.user_imm_bits)
        return msg, pkt, frag

    def user_fragment_of(self, user_imm: int, packet_index: int) -> int:
        """The fragment of ``user_imm`` carried by packet ``packet_index``.

        Fragment ``k = packet_index mod user_fragments`` carries bits
        ``[k * user_imm_bits, (k+1) * user_imm_bits)`` of the 32-bit value,
        so any window of ``user_fragments`` consecutive packets covers it.
        """
        if self.user_imm_bits == 0:
            return 0
        k = packet_index % self.user_fragments
        return (user_imm >> (k * self.user_imm_bits)) & (
            (1 << self.user_imm_bits) - 1
        )


class UserImmAssembler:
    """Receiver-side reconstruction of the 32-bit user immediate."""

    def __init__(self, layout: ImmLayout):
        self.layout = layout
        self._fragments = layout.user_fragments  # 0: no user immediate
        self._nibbles: dict[int, int] = {}

    def feed(self, packet_index: int, fragment: int) -> None:
        if self._fragments:
            self._nibbles.setdefault(packet_index % self._fragments, fragment)

    @property
    def ready(self) -> bool:
        return 0 < self._fragments == len(self._nibbles)

    def value(self) -> int:
        if not self.ready:
            raise ConfigError("user immediate not yet fully reconstructed")
        out = 0
        for k, frag in self._nibbles.items():
            out |= frag << (k * self.layout.user_imm_bits)
        return out & 0xFFFFFFFF
