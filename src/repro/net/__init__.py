"""Network substrate: packets, loss models and lossy long-haul channels.

This package models the physical/link layer under the simulated RDMA stack:

* :mod:`repro.net.packet` -- the wire unit exchanged between simulated NICs.
* :mod:`repro.net.loss` -- drop processes: i.i.d. Bernoulli, Gilbert-Elliott
  bursts, and the congestion-modulated WAN model behind Figure 2.
* :mod:`repro.net.channel` -- a unidirectional serialize + propagate + drop
  pipe with optional jitter-induced reordering.
* :mod:`repro.net.wan` -- the synthetic inter-datacenter measurement campaign
  (drop rate vs payload size) substituting the Lugano-Lausanne link.
"""

from typing import TYPE_CHECKING

from repro.common import lazy_exports
from repro.net.channel import Channel, DuplexLink
from repro.net.loss import (
    BernoulliLoss,
    CongestedWanLoss,
    GilbertElliottLoss,
    LossModel,
    NoLoss,
)
from repro.net.packet import Packet

if TYPE_CHECKING:
    from repro.net.multipath import BondedChannel, connect_bonded

#: Multi-plane bonding loads when a name is first read.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "multipath": ("BondedChannel", "connect_bonded"),
})

__all__ = [
    "BernoulliLoss",
    "BondedChannel",
    "Channel",
    "CongestedWanLoss",
    "DuplexLink",
    "GilbertElliottLoss",
    "LossModel",
    "NoLoss",
    "Packet",
    "connect_bonded",
]
