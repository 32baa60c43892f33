"""``repro.fabric``: multi-tenant RDMA-as-a-service on a topology graph.

The rest of the repo studies one reliable connection in depth; this
package studies many tenants sharing a fabric in breadth.  It has three
layers:

* :mod:`repro.fabric.topology` -- the graph (hosts, ToR switches, WAN
  links), one profiled :class:`~repro.net.channel.Channel` per directed
  edge, deterministic shortest-path routing, store-and-forward relay.
* :mod:`repro.fabric.service` -- the provider: tenant quotas, bounded
  per-pair QP pools, per-pair congestion control, segment-level
  reliability (RTO + bounded retransmission).
* :mod:`repro.fabric.health` -- per-edge circuit breakers feeding
  health-driven route recomputation (open edges drop out of Dijkstra,
  half-open edges are probed by the traffic they attract).
* :mod:`repro.fabric.chaos` -- topology-level fault injection
  (``edge_down`` / ``node_crash`` windows) and the canned survival
  experiments behind ``repro fabric --chaos``.
* :mod:`repro.fabric.scenarios` / :mod:`repro.fabric.report` -- canned
  fairness and scale experiments plus per-tenant reporting, surfaced as
  the ``repro fabric`` CLI subcommand and the fabric benchmarks.
"""

from typing import TYPE_CHECKING

from repro.common import lazy_exports
from repro.fabric.report import (
    TenantReport,
    jain_index,
    lineage_tenant_table,
    metrics_digest,
    per_tenant_reports,
    tenant_table,
)
from repro.fabric.scenarios import (
    FairnessConfig,
    FairnessResult,
    ScaleConfig,
    ScaleResult,
    arm_slo,
    fairness_scenario,
    scale_scenario,
    smoke_config,
    submit_schedule,
)
from repro.fabric.service import (
    FabricService,
    FabricServiceConfig,
    FlowTicket,
    TenantSpec,
)
from repro.fabric.topology import (
    FabricNetwork,
    FabricTopology,
    dumbbell,
    two_tier,
)

if TYPE_CHECKING:
    from repro.fabric.chaos import (
        FABRIC_SCHEDULES,
        ChaosConfig,
        ChaosResult,
        FabricChaosPlane,
        chaos_scenario,
        fabric_schedule,
        install_fabric_faults,
    )
    from repro.fabric.health import BreakerConfig, EdgeHealthMonitor

#: Chaos and edge health load when a name is first read.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "chaos": (
        "FABRIC_SCHEDULES", "ChaosConfig", "ChaosResult", "FabricChaosPlane",
        "chaos_scenario", "fabric_schedule", "install_fabric_faults",
    ),
    "health": ("BreakerConfig", "EdgeHealthMonitor"),
})

__all__ = [
    "BreakerConfig",
    "ChaosConfig",
    "ChaosResult",
    "EdgeHealthMonitor",
    "FABRIC_SCHEDULES",
    "FabricChaosPlane",
    "FabricNetwork",
    "chaos_scenario",
    "fabric_schedule",
    "install_fabric_faults",
    "FabricService",
    "FabricServiceConfig",
    "FabricTopology",
    "FairnessConfig",
    "FairnessResult",
    "FlowTicket",
    "ScaleConfig",
    "ScaleResult",
    "TenantReport",
    "TenantSpec",
    "arm_slo",
    "dumbbell",
    "fairness_scenario",
    "jain_index",
    "lineage_tenant_table",
    "metrics_digest",
    "per_tenant_reports",
    "scale_scenario",
    "smoke_config",
    "submit_schedule",
    "tenant_table",
    "two_tier",
]
