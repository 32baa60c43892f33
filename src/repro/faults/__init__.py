"""Deterministic fault-injection plane (ISSUE 2 tentpole).

Scripts time-windowed network and DPA pathologies against the simulated
stack -- blackouts, brownouts, delay spikes, reorder storms, duplication
bursts, corruption, asymmetric control/data loss, DPA stalls and crashes --
all driven from the simulation's RNG and clock so same-seed chaos runs are
byte-identical.  See ``docs/robustness.md``.
"""

from repro.faults.channel import FaultyChannel, packet_class
from repro.faults.inject import (
    install_dpa_faults,
    install_edge_faults,
    install_link_faults,
)
from repro.faults.schedule import (
    CHANNEL_KINDS,
    DPA_KINDS,
    FABRIC_KINDS,
    NAMED_SCHEDULES,
    FaultSchedule,
    FaultWindow,
    named_schedule,
)

__all__ = [
    "CHANNEL_KINDS",
    "DPA_KINDS",
    "FABRIC_KINDS",
    "NAMED_SCHEDULES",
    "FaultSchedule",
    "FaultWindow",
    "FaultyChannel",
    "install_dpa_faults",
    "install_edge_faults",
    "install_link_faults",
    "named_schedule",
    "packet_class",
]
