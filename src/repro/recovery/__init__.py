"""``repro.recovery``: plane health, circuit-breaker failover, resumption.

The recovery plane has two halves (see ``docs/robustness.md``):

* :class:`PlaneRecovery` -- per-plane health monitoring over a
  :class:`~repro.net.multipath.BondedChannel` driving one
  :class:`CircuitBreaker` per plane (the keyed :class:`BreakerSet` loop
  the fabric's edge monitor shares), so the spraying policies exclude
  failed planes and re-admit them via probe packets; and
* :class:`ResumeToken` -- bitmap-driven transfer resumption: a failed
  write re-posts under a fresh ``(msg_id, generation)`` slot and
  retransmits only the missing chunks (``SrSender.resume`` /
  ``EcSender.resume`` / ``AdaptiveSender.resume``).
"""

from typing import TYPE_CHECKING

from repro.common import lazy_exports
from repro.recovery.resume import ResumeToken

if TYPE_CHECKING:
    from repro.recovery.health import (
        CLOSED,
        HALF_OPEN,
        OPEN,
        BreakerConfig,
        BreakerSet,
        CircuitBreaker,
        PlaneHealth,
        PlaneRecovery,
    )

#: Plane health loads when a name is first read.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "health": (
        "CLOSED", "HALF_OPEN", "OPEN", "BreakerConfig", "BreakerSet",
        "CircuitBreaker", "PlaneHealth", "PlaneRecovery",
    ),
})

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "BreakerConfig",
    "BreakerSet",
    "CircuitBreaker",
    "PlaneHealth",
    "PlaneRecovery",
    "ResumeToken",
]
