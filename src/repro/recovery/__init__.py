"""``repro.recovery``: plane health and circuit-breaker failover.

:class:`PlaneRecovery` monitors per-plane health over a
:class:`~repro.net.multipath.BondedChannel` and drives one
:class:`CircuitBreaker` per plane (the keyed :class:`BreakerSet` loop the
fabric's edge monitor shares), so the spraying policies exclude failed
planes and re-admit them via probe packets.  A sender attached to it
(``attach_recovery``) feeds it RTO and NACK loss signals.

The other half of recovery, resuming a write in its own slot once its
retry budget is spent, lives in the reliability substrate
(:meth:`repro.reliability.base.Sender._resume`; ``docs/robustness.md``).
"""

from typing import TYPE_CHECKING

from repro.common import lazy_exports

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
]
