"""Simulated RDMA devices and the fabric wiring them together.

A :class:`Device` is one NIC: it owns QP numbers, registered memory keys and
the receive dispatch (packets arriving on an attached channel are routed to
the destination QP).  A :class:`Fabric` creates devices and installs
:class:`~repro.net.channel.DuplexLink` objects between them; all QPs between
a device pair share the pair's physical link, so multi-channel SDR traffic
contends for serialization exactly as it would on one long-haul cable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.config import ChannelConfig
from repro.common.errors import ConfigError, ResourceError
from repro.net.channel import Channel, DuplexLink
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.verbs.mr import IndirectMkeyTable, MemoryRegion

if TYPE_CHECKING:  # import cycle guard
    from repro.verbs.qp import BaseQp


class Device:
    """One simulated NIC endpoint."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self._next_qpn = 1
        self.qps: dict[int, "BaseQp"] = {}
        self.mkeys: dict[int, MemoryRegion | IndirectMkeyTable] = {}
        self._links: dict[str, Channel] = {}

    # -- resources -------------------------------------------------------------

    def alloc_qpn(self) -> int:
        qpn = self._next_qpn
        self._next_qpn += 1
        return qpn

    def register_qp(self, qp: "BaseQp") -> None:
        self.qps[qp.qpn] = qp

    def reg_mr(self, mr: MemoryRegion | IndirectMkeyTable) -> None:
        """Make ``mr`` addressable from the wire by its rkey."""
        self.mkeys[mr.rkey] = mr
        # The indirect table's embedded NULL MR must also resolve.
        null_mr = getattr(mr, "null_mr", None)
        if null_mr is not None:
            self.mkeys[null_mr.rkey] = null_mr

    def lookup_mkey(self, rkey: int) -> MemoryRegion | IndirectMkeyTable:
        try:
            return self.mkeys[rkey]
        except KeyError:
            raise ResourceError(f"{self.name}: unknown rkey {rkey}") from None

    # -- wiring ----------------------------------------------------------------

    def attach_link(self, peer: str, outgoing: Channel, incoming: Channel) -> None:
        if peer in self._links:
            raise ConfigError(f"{self.name} already linked to {peer}")
        self._links[peer] = outgoing
        incoming.attach_sink(self._rx)

    def replace_link(self, peer: str, *, outgoing: Channel, incoming: Channel) -> None:
        """Swap the channels used to reach ``peer`` (fault-plane insertion).

        QPs cache the outgoing channel when they connect, so wrappers (e.g.
        :class:`repro.faults.FaultyChannel`) must be installed *before* the
        QPs that should transmit through them.
        """
        if peer not in self._links:
            raise ConfigError(f"{self.name} has no link to {peer}")
        self._links[peer] = outgoing
        incoming.attach_sink(self._rx)

    def link_to(self, peer: str) -> Channel:
        try:
            return self._links[peer]
        except KeyError:
            raise ConfigError(f"{self.name} has no link to {peer}") from None

    @property
    def peers(self) -> list[str]:
        return sorted(self._links)

    def _rx(self, packet: Packet) -> None:
        qp = self.qps.get(packet.dst_qpn)
        if qp is None:
            # Packets to torn-down QPs vanish silently, as on real fabrics.
            return
        qp.on_packet(packet)


class Fabric:
    """Factory for devices and the links between them."""

    def __init__(self, sim: Simulator, *, seed: int = 0):
        self.sim = sim
        self.rng = RngStreams(seed)
        self.devices: dict[str, Device] = {}
        self.links: dict[tuple[str, str], DuplexLink] = {}

    def add_device(self, name: str) -> Device:
        if name in self.devices:
            raise ConfigError(f"device {name!r} already exists")
        dev = Device(self.sim, name)
        self.devices[name] = dev
        return dev

    def connect(
        self,
        a: Device,
        b: Device,
        config: ChannelConfig,
        *,
        config_rev: ChannelConfig | None = None,
    ) -> DuplexLink:
        """Install a duplex link between devices ``a`` and ``b``.

        ``config_rev`` makes the link asymmetric (e.g. a thin return path
        for ACK traffic); it defaults to the forward config.
        """
        key = (a.name, b.name)
        if key in self.links or (b.name, a.name) in self.links:
            raise ConfigError(f"{a.name} and {b.name} are already connected")
        link = DuplexLink(
            self.sim,
            config,
            config_rev=config_rev,
            rng_fwd=self.rng.get(f"link.{a.name}->{b.name}"),
            rng_rev=self.rng.get(f"link.{b.name}->{a.name}"),
            name=f"{a.name}<->{b.name}",
        )
        a.attach_link(b.name, link.forward, link.reverse)
        b.attach_link(a.name, link.reverse, link.forward)
        self.links[key] = link
        return link
