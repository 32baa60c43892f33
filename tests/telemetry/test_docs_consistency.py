"""Docs-vs-code consistency: the metric-prefix table stays truthful.

Every top-level metric prefix documented in ``docs/observability.md``'s
naming-scheme table must appear in a real registry snapshot, and every
prefix a demo run actually produces must be documented.  This keeps the
table from rotting as producers come and go.  The same page's lineage
attribution table must list exactly ``ATTRIBUTION_CATEGORIES``, in order.
"""

import re
from pathlib import Path

from repro.common.units import KiB, MiB, distance_to_rtt
from repro.fabric import fairness_scenario, smoke_config
from repro.faults import named_schedule
from repro.reliability.gbn import GbnReceiver, GbnSender
from repro.reliability.sr import SrConfig
from repro.telemetry import (
    ATTRIBUTION_CATEGORIES,
    LineageAnalyzer,
    RingBufferSink,
    SloConfig,
    Telemetry,
)
from repro.telemetry.demo import run_demo

from tests.conftest import make_sdr_pair

DOCS = Path(__file__).resolve().parents[2] / "docs" / "observability.md"


def documented_prefixes() -> set[str]:
    """Top-level prefixes from the naming-scheme table in the docs."""
    text = DOCS.read_text(encoding="utf-8")
    section = text.split("## Metric naming scheme", 1)[1]
    table = section.split("\n## ", 1)[0]
    prefixes: set[str] = set()
    for line in table.splitlines():
        if not line.startswith("| `"):
            continue
        first_cell = line.split("|")[1]
        for token in re.findall(r"`([a-z]+)[.<`]", first_cell):
            prefixes.add(token)
    return prefixes


def produced_prefixes() -> set[str]:
    """Top-level prefixes from real runs covering every producer."""
    names: set[str] = set()
    rtt = distance_to_rtt(1000.0)
    for protocol in ("sr", "ec", "adaptive", "sampling"):
        ring = RingBufferSink(capacity=1 << 20)
        telemetry = Telemetry(trace=True, trace_sinks=[ring])
        result = run_demo(
            protocol=protocol, messages=2, message_bytes=MiB, drop=0.01,
            chunk_bytes=64 * KiB, telemetry=telemetry,
            faults=named_schedule("blackout", rtt=rtt),
        )
        registry = result.telemetry.metrics
        # lineage.* comes from trace post-processing, not a hot-path producer.
        LineageAnalyzer.from_events(ring.events).publish(registry)
        names.update(registry.names())
    # run_demo has no GBN mode; drive the baseline over a raw SDR pair.
    pair = make_sdr_pair(drop=0.01, seed=1)
    sender = GbnSender(pair.qp_a, pair.ctrl_a, SrConfig())
    receiver = GbnReceiver(pair.qp_b, pair.ctrl_b, SrConfig())
    size = 256 * KiB
    mr = pair.ctx_b.mr_reg(size)
    receiver.post_receive(mr, size)
    ticket = sender.write(size)
    pair.sim.run(ticket.done)
    names.update(pair.sim.telemetry.metrics.names())
    # fabric.*, slo.* and timeseries.* come from an armed fabric run.
    fabric_telemetry = Telemetry()
    fairness_scenario(
        smoke_config(seed=0), telemetry=fabric_telemetry, slo=SloConfig()
    )
    names.update(fabric_telemetry.metrics.names())
    return {name.split(".", 1)[0] for name in names}


def documented_categories() -> list[str]:
    """The category column of the attribution table, in order."""
    text = DOCS.read_text(encoding="utf-8")
    section = text.split("### Attribution categories", 1)[1]
    section = section.split("\n## ", 1)[0].split("\n### ", 1)[0]
    return re.findall(r"^\| `([a-z_]+)` \|", section, flags=re.MULTILINE)


class TestDocsConsistency:
    def test_attribution_table_lists_every_category(self):
        assert tuple(documented_categories()) == ATTRIBUTION_CATEGORIES

    def test_every_documented_prefix_is_produced(self):
        documented = documented_prefixes()
        assert documented, "failed to parse the naming-scheme table"
        produced = produced_prefixes()
        missing = documented - produced
        assert not missing, (
            f"documented in {DOCS.name} but never produced: {sorted(missing)}"
        )

    def test_every_produced_prefix_is_documented(self):
        documented = documented_prefixes()
        produced = produced_prefixes()
        undocumented = produced - documented
        assert not undocumented, (
            f"produced but missing from {DOCS.name}: {sorted(undocumented)}"
        )

    def test_fluid_mode_produces_documented_prefixes_only(self):
        """The fluid fast path publishes through the same registries:
        a fluid run must not mint undocumented metric prefixes."""
        from repro.common.units import MiB as _MiB
        from repro.fabric import ScaleConfig, scale_scenario

        documented = documented_prefixes()
        names: set[str] = set()

        fabric_telemetry = Telemetry()
        scale_scenario(
            ScaleConfig(
                tenants=20,
                duration=0.005,
                offered_load_bps=40e9,
                tors=2,
                hosts_per_tor=2,
                mean_message_bytes=2 * _MiB,
                max_message_bytes=8 * _MiB,
                fluid=True,
            ),
            telemetry=fabric_telemetry,
        )
        names.update(fabric_telemetry.metrics.names())

        produced = {name.split(".", 1)[0] for name in names}
        undocumented = produced - documented
        assert not undocumented, (
            f"fluid run produced prefixes missing from {DOCS.name}: "
            f"{sorted(undocumented)}"
        )
