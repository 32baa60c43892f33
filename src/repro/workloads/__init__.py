"""Workload generators for inter-datacenter traffic.

:mod:`repro.workloads.openloop` generates open-loop, heavy-tailed
multi-tenant arrivals (thousands of tenants, up to millions of messages)
that drive the ``repro.fabric`` RDMA-as-a-service layer.
"""

from repro.workloads.openloop import OpenLoopConfig, Workload, generate

__all__ = [
    "OpenLoopConfig",
    "Workload",
    "generate",
]
