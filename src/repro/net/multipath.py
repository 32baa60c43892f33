"""Multi-plane / ECMP-style bonded channels.

Section 3.4.1 of the paper: "by spreading traffic across channel QPs, SDR
could leverage intra-datacenter multi-pathing (e.g., ECMP) and multi-plane
networks".  :class:`BondedChannel` models that substrate: N independent
*planes* (each its own serializer, delay, jitter and loss process) bonded
into one logical channel.  Packets are spread across planes by source QP
(flow-hash, the ECMP behaviour) or per-packet round-robin (packet spray).

Because SDR issues one single-packet Write-with-immediate per MTU, packets
of one message legitimately traverse different planes and arrive reordered
-- which plain UC multi-packet messages cannot survive (see
``tests/net/test_multipath.py`` and the Figure-ablation bench).

A bonded channel exposes the same ``transmit``/``attach_sink`` interface as
:class:`~repro.net.channel.Channel`, so devices and QPs use it unchanged.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.common.config import ChannelConfig
from repro.common.errors import ConfigError
from repro.net.channel import Channel, ChannelStats
from repro.net.packet import Packet
from repro.sim.engine import Simulator


class BondedChannel:
    """N parallel planes behind a single logical channel interface.

    ``config.bandwidth_bps`` is the *aggregate*; each plane serializes at
    ``bandwidth / planes``.  ``spread`` selects the spraying policy:

    * ``"flow"``  -- plane = hash(src QP): per-flow ECMP, order-preserving
      within a QP;
    * ``"packet"`` -- round-robin packet spray: maximal load balance,
      reorders freely (only safe above SDR-style per-packet transports).
    """

    def __init__(
        self,
        sim: Simulator,
        config: ChannelConfig,
        *,
        planes: int,
        rng: np.random.Generator,
        spread: str = "flow",
        name: str = "bonded",
    ):
        if planes < 1:
            raise ConfigError(f"need >= 1 plane, got {planes}")
        if spread not in ("flow", "packet"):
            raise ConfigError(f"spread must be 'flow' or 'packet', got {spread!r}")
        self.sim = sim
        self.config = config
        self.planes_count = planes
        self.spread = spread
        self.name = name
        per_plane = replace(config, bandwidth_bps=config.bandwidth_bps / planes)
        self.planes = [
            Channel(
                sim,
                per_plane,
                rng=np.random.default_rng(rng.integers(0, 2**63)),
                name=f"{name}.plane{i}",
            )
            for i in range(planes)
        ]
        self._rr = 0
        self._recovery = None

    # -- Channel interface ---------------------------------------------------------

    def attach_sink(self, sink) -> None:
        for plane in self.planes:
            plane.attach_sink(sink)

    def transmit(self, packet: Packet) -> float:
        return self.planes[self._pick(packet)].transmit(packet)

    def set_recovery(self, recovery) -> None:
        """Attach a :class:`repro.recovery.PlaneRecovery` to this channel.

        Once attached, the recovery plane's circuit breakers steer
        ``_pick``: flow-hash and packet-spray policies exclude open planes
        and re-admit half-open planes via probe packets.  Pass ``None``
        to detach.
        """
        self._recovery = recovery

    def _pick(self, packet: Packet) -> int:
        if self._recovery is not None:
            index = self._recovery.pick(self, packet)
            if index is not None:
                return index
        if self.spread == "flow":
            return packet.src_qpn % self.planes_count
        index = self._rr
        self._rr = (self._rr + 1) % self.planes_count
        return index

    @property
    def next_free(self) -> float:
        return min(plane.next_free for plane in self.planes)

    @property
    def stats(self) -> ChannelStats:
        """Aggregate statistics across planes (fresh snapshot)."""
        agg = ChannelStats()
        for plane in self.planes:
            snap = plane.stats
            agg.packets_offered += snap.packets_offered
            agg.packets_dropped += snap.packets_dropped
            agg.packets_duplicated += snap.packets_duplicated
            agg.tail_drops += snap.tail_drops
            agg.ecn_marked += snap.ecn_marked
            agg.bytes_offered += snap.bytes_offered
            agg.bytes_delivered += snap.bytes_delivered
            agg.busy_until = max(agg.busy_until, snap.busy_until)
        return agg


def connect_bonded(
    fabric,
    a,
    b,
    config: ChannelConfig,
    *,
    planes: int,
    spread: str = "flow",
):
    """Install a bonded multi-plane link between devices ``a`` and ``b``.

    The bonded-channel analogue of :meth:`repro.verbs.Fabric.connect`;
    returns the (forward, reverse) bonded channels.
    """
    key = (a.name, b.name)
    if key in fabric.links or (b.name, a.name) in fabric.links:
        raise ConfigError(f"{a.name} and {b.name} are already connected")
    fwd = BondedChannel(
        fabric.sim,
        config,
        planes=planes,
        rng=fabric.rng.get(f"bond.{a.name}->{b.name}"),
        spread=spread,
        name=f"{a.name}->{b.name}",
    )
    rev = BondedChannel(
        fabric.sim,
        config,
        planes=planes,
        rng=fabric.rng.get(f"bond.{b.name}->{a.name}"),
        spread=spread,
        name=f"{b.name}->{a.name}",
    )
    a.attach_link(b.name, fwd, rev)
    b.attach_link(a.name, rev, fwd)
    fabric.links[key] = (fwd, rev)
    return fwd, rev
