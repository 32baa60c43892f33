"""Reliability layers built on the SDR partial-completion bitmap.

Two protocol families from Section 4 of the paper:

* :mod:`repro.reliability.sr` -- Selective Repeat (ARQ): streaming SDR sends
  with per-chunk retransmission timeouts, cumulative+selective ACKs, and an
  optional NACK fast path.
* :mod:`repro.reliability.ec` -- Erasure Coding (FEC): speculative parity
  submessages, receiver-side in-place recovery, fallback timeout (FTO) and
  Selective Repeat fallback for unrecoverable submessages.

Plus three demonstrations of the software-defined premise (new reliability
schemes without new silicon):

* :mod:`repro.reliability.gbn` -- Go-Back-N, the commodity-NIC baseline,
  as an SDR user (cumulative-only ACKs, window rewind on timeout).
* :mod:`repro.reliability.adaptive` -- per-connection protocol
  provisioning (Section 2.1): the receiver picks SR or EC per message from
  a model-driven advisor fed by its observed drop rate.
* :mod:`repro.reliability.sampling` -- receiver-driven availability
  sampling: deterministic bitmap probes, compact segment repair requests,
  a single Done instead of a per-RTT ACK stream, with resumption in place
  as its liveness backstop.

Every scheme is a policy over the substrate in :mod:`repro.reliability.base`
(control path, tickets, and the ``Endpoint`` / ``Sender`` / ``Receiver``
skeleton: streams, wire-paced injection, the bitmap serve loop, the one
completion and one ``DeliveryError`` failure path, resumption in place);
:mod:`repro.reliability.messages` holds the control wire formats.  Each
scheme module registers itself by name (:func:`register_scheme`, the table
is :data:`SCHEMES`); :func:`repro.stack.endpoints` resolves names through it.
"""

from typing import TYPE_CHECKING

from repro.common import lazy_exports
from repro.reliability.base import (
    SCHEMES,
    ControlPath,
    ReceiveTicket,
    WriteTicket,
    register_scheme,
)
from repro.reliability.ec import EcConfig, EcReceiver, EcSender
from repro.reliability.messages import (
    Ack,
    EcAck,
    EcNack,
    Provision,
    RepairReq,
    SrNack,
    decode_message,
)
from repro.reliability.sr import SrConfig, SrReceiver, SrSender

if TYPE_CHECKING:
    from repro.reliability.adaptive import (
        AdaptiveReceiver,
        AdaptiveSender,
        DropRateEstimator,
        ProtocolAdvisor,
    )
    from repro.reliability.gbn import GbnReceiver, GbnSender
    from repro.reliability.sampling import (
        SamplingConfig,
        SamplingReceiver,
        SamplingSender,
    )

#: The schemes beyond SR and EC load when a name is first read, or when
#: :data:`SCHEMES` is first asked for them.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "adaptive": (
        "AdaptiveReceiver", "AdaptiveSender", "DropRateEstimator",
        "ProtocolAdvisor",
    ),
    "gbn": ("GbnReceiver", "GbnSender"),
    "sampling": ("SamplingConfig", "SamplingReceiver", "SamplingSender"),
})

__all__ = [
    "Ack",
    "AdaptiveReceiver",
    "AdaptiveSender",
    "ControlPath",
    "DropRateEstimator",
    "EcAck",
    "EcConfig",
    "EcNack",
    "EcReceiver",
    "EcSender",
    "GbnReceiver",
    "GbnSender",
    "ProtocolAdvisor",
    "Provision",
    "ReceiveTicket",
    "RepairReq",
    "SCHEMES",
    "SamplingConfig",
    "SamplingReceiver",
    "SamplingSender",
    "SrConfig",
    "SrNack",
    "SrReceiver",
    "SrSender",
    "WriteTicket",
    "decode_message",
    "register_scheme",
]
