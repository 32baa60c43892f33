"""What a packet-mode fabric run keeps resident scales with its flows.

The fabric twin of ``tests/reliability/test_memory_bound.py``.  An
open-loop run preloads every arrival: one ``FlowTicket`` per flow lives
for the whole run, and one heap entry per flow waits for its arrival
instant.  So the per-flow records set the peak (``docs/simulation.md``,
"Hot-path records"): a dict-backed ticket, a bound method built per
pending arrival or idle RTO timer, or a closure per in-flight segment
shows here as bytes per flow.  ``bench/run.py``'s ``peak_rss_mib`` sees
the same thing only at full size.
"""

import gc
import tracemalloc

from repro.fabric.scenarios import ScaleConfig, scale_scenario
from repro.fabric.service import FlowTicket

#: tracemalloc's peak per submitted flow on the miniature below, read on
#: CPython 3.11 with slotted tickets, callbacks bound once and a
#: ``partial`` per segment (1,987 B per flow while each was a dict, a
#: fresh bound method and a closure).  The ceiling is 10 % above it.
PER_FLOW = 1749


def _miniature(duration: float) -> ScaleConfig:
    """``fabric_pkt``'s fabric and load (packet mode), 10 tenants."""
    return ScaleConfig(
        tenants=10, tors=2, hosts_per_tor=2, offered_load_bps=60e9,
        duration=duration, seed=0, rate_skew=0.0,
    )


def test_peak_bytes_per_flow():
    scale_scenario(_miniature(0.0005))  # lazy imports and first-use caches
    gc.collect()
    tracemalloc.start()
    try:
        result = scale_scenario(_miniature(0.004))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.messages > 1500 and result.completed == result.messages
    assert peak / result.messages <= 1.10 * PER_FLOW, (
        f"{peak / result.messages:,.0f} B peak per flow"
    )


def test_flow_ticket_is_slotted():
    ticket = FlowTicket(
        seq=0, tenant="t0", src="h0", dst="h1", nbytes=1, submitted=0.0
    )
    assert not hasattr(ticket, "__dict__")
