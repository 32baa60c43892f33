"""Inter-datacenter collectives (Section 5.3, Appendix C).

:mod:`repro.collectives.ring_allreduce` simulates the ring Allreduce
finish-time recurrence ``T(i,r) = max(T(i-1,r-1), T(i,r-1)) + t(i,r-1)``
across N datacenters, with per-stage P2P durations sampled from the SR/EC
completion-time models.  :mod:`repro.collectives.bounds` provides the
Appendix C lower bound ``E[T] >= (2N-2)(C + mu_X)``.
"""

from repro.collectives.bounds import allreduce_lower_bound
from repro.collectives.des_ring import DesRingResult, run_des_ring_allreduce
from repro.collectives.ring_allreduce import (
    RingAllreduce,
    ec_stage_sampler,
    ideal_stage_sampler,
    sr_stage_sampler,
)

__all__ = [
    "DesRingResult",
    "RingAllreduce",
    "run_des_ring_allreduce",
    "allreduce_lower_bound",
    "ec_stage_sampler",
    "ideal_stage_sampler",
    "sr_stage_sampler",
]
