"""LineageAnalyzer: causal timelines, attribution exactness, model validation.

The attribution algorithm partitions each completed message's
``[posted, completed]`` span exactly (busy wire/CPU intervals + classified
idle gaps), so the cross-check ``check()`` must hold to round-off on any
trace.  On a loss-free SR run the sender-side portion of the span
(``span - cts_wait``) reproduces the analytical ``sr_expected_completion``
(chunks * T_inj + RTT) -- the paper's E[T_SR] with p = 0.
"""

import io

import pytest

from repro.common.errors import ConfigError
from repro.common.units import KiB, MiB, distance_to_rtt
from repro.models.params import ModelParams
from repro.models.sr_model import sr_expected_completion
from repro.reliability import SCHEMES
from repro.stack import endpoints
from repro.telemetry import (
    ATTRIBUTION_CATEGORIES,
    JsonlSink,
    LineageAnalyzer,
    MetricsRegistry,
    RingBufferSink,
    Telemetry,
)
from repro.telemetry.demo import run_demo

from tests.conftest import make_sdr_pair

CHUNK = 64 * KiB


def _traced_run(**kwargs):
    ring = RingBufferSink(capacity=1 << 20)
    telemetry = Telemetry(trace=True, trace_sinks=[ring])
    defaults = dict(
        protocol="sr", messages=3, message_bytes=MiB, drop=0.0, seed=0,
        chunk_bytes=CHUNK, telemetry=telemetry,
    )
    defaults.update(kwargs)
    result = run_demo(**defaults)
    return result, ring


class TestLossFreeValidation:
    def test_sum_matches_sr_model_within_5pct(self):
        _, ring = _traced_run(drop=0.0)
        analyzer = LineageAnalyzer.from_events(ring.events)
        analyzer.check()
        params = ModelParams(
            bandwidth_bps=100e9,
            rtt=distance_to_rtt(1000.0),
            chunk_bytes=CHUNK,
            drop_probability=0.0,
        )
        chunks = MiB // CHUNK
        model = sr_expected_completion(params, chunks)
        for m in analyzer.completed:
            # The analytic model excludes the CTS rendezvous the DES pays
            # before the first byte leaves; the attribution isolates it.
            sender_span = m.span - m.attribution["cts_wait"]
            assert sender_span == pytest.approx(model, rel=0.05)

    def test_no_loss_categories_on_clean_run(self):
        _, ring = _traced_run(drop=0.0)
        analyzer = LineageAnalyzer.from_events(ring.events)
        for m in analyzer.completed:
            assert m.attribution["retransmit"] == 0.0
            assert m.attribution["rto_wait"] == 0.0
            assert m.attribution["loss_recovery"] == 0.0
            assert m.drops == 0
            assert m.retransmits == 0

    def test_attribution_covers_all_categories_keys(self):
        _, ring = _traced_run()
        analyzer = LineageAnalyzer.from_events(ring.events)
        for m in analyzer.completed:
            assert set(m.attribution) == set(ATTRIBUTION_CATEGORIES)


class TestLossyAttribution:
    def test_fixed_loss_sums_to_span(self):
        _, ring = _traced_run(drop=0.02, nack=True)
        analyzer = LineageAnalyzer.from_events(ring.events)
        analyzer.check()  # raises if any attribution mismatches its span
        done = analyzer.completed
        assert done
        assert any(m.retransmits > 0 for m in done)
        assert any(
            m.attribution["rto_wait"] + m.attribution["loss_recovery"] > 0
            for m in done
        )

    def test_drops_and_retransmits_counted(self):
        result, ring = _traced_run(drop=0.05)
        analyzer = LineageAnalyzer.from_events(ring.events)
        total_drops = sum(m.drops for m in analyzer.completed)
        assert total_drops > 0
        # Registry ground truth: every counted drop is a correlated data drop.
        dropped = sum(
            v for k, v in result.telemetry.metrics.snapshot("net").items()
            if k.endswith("packets_dropped")
        )
        assert total_drops <= dropped

    def test_ec_members_fold_into_parent(self):
        _, ring = _traced_run(protocol="ec", drop=0.02)
        analyzer = LineageAnalyzer.from_events(ring.events)
        analyzer.check()
        done = analyzer.completed
        assert done
        for m in done:
            assert m.protocol == "ec"
            assert m.attribution["first_transmit"] > 0
            # Parity rides along: more wire time than the data alone.
            assert m.bytes == MiB


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_every_scheme_completes_its_lineages(scheme):
    """Lineage completes on each scheme's ``<scheme>_write`` span, not on a
    hard-coded list of names (GBN's ``gbn_write`` used to be missed)."""
    ring = RingBufferSink(capacity=1 << 20)
    pair = make_sdr_pair(telemetry=Telemetry(trace=True, trace_sinks=[ring]))
    sender, receiver = endpoints(scheme, pair)
    size = 256 * KiB
    tickets = []
    for _ in range(3):
        receiver.post_receive(pair.ctx_b.mr_reg(size), size)
        tickets.append(sender.write(size))
    pair.sim.run(pair.sim.all_of([t.done for t in tickets]))
    analyzer = LineageAnalyzer.from_events(ring.events)
    assert [m.msg for m in analyzer.completed] == [t.seq for t in tickets]
    analyzer.check()


class TestDeterminismAndRoundTrip:
    def test_same_seed_same_attribution(self):
        _, ring_a = _traced_run(drop=0.02, seed=3)
        _, ring_b = _traced_run(drop=0.02, seed=3)
        table_a = LineageAnalyzer.from_events(ring_a.events).summary_table()
        table_b = LineageAnalyzer.from_events(ring_b.events).summary_table()
        assert table_a.rows == table_b.rows

    def test_jsonl_replay_equals_live_ring(self, tmp_path):
        buf = io.StringIO()
        ring = RingBufferSink(capacity=1 << 20)
        telemetry = Telemetry(trace=True, trace_sinks=[ring, JsonlSink(buf)])
        run_demo(
            protocol="sr", messages=2, message_bytes=MiB, drop=0.02,
            chunk_bytes=CHUNK, telemetry=telemetry,
        )
        path = tmp_path / "trace.jsonl"
        path.write_text(buf.getvalue())
        live = LineageAnalyzer.from_events(ring.events)
        replayed = LineageAnalyzer.from_jsonl(str(path))
        assert live.summary_table().rows == replayed.summary_table().rows
        assert live.blame_table().rows == replayed.blame_table().rows

    def test_from_jsonl_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            LineageAnalyzer.from_jsonl(str(tmp_path / "nope.jsonl"))

    def test_from_jsonl_corrupt_file_raises_config_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        with pytest.raises(ConfigError, match="not a valid"):
            LineageAnalyzer.from_jsonl(str(bad))


class TestStragglersAndReporting:
    def test_straggler_detection_with_dominant_blame(self):
        # One message rides through heavy loss; it must surface as the
        # straggler with a loss-induced dominant category.
        _, ring = _traced_run(messages=6, drop=0.08)
        analyzer = LineageAnalyzer.from_events(ring.events)
        slow = analyzer.stragglers(k=1.5)
        if slow:  # loss pattern is seed-fixed, so this branch is stable
            worst = slow[0]
            assert worst.span > 1.5 * analyzer.p50_span()
            assert worst.dominant in ("rto_wait", "loss_recovery", "retransmit")

    def test_straggler_k_validation(self):
        _, ring = _traced_run(messages=1)
        analyzer = LineageAnalyzer.from_events(ring.events)
        with pytest.raises(ConfigError):
            analyzer.stragglers(k=0.0)

    def test_publish_exports_lineage_metrics(self):
        _, ring = _traced_run()
        analyzer = LineageAnalyzer.from_events(ring.events)
        registry = MetricsRegistry()
        analyzer.publish(registry)
        names = registry.names("lineage")
        assert "lineage.messages" in names
        assert "lineage.stragglers" in names
        assert "lineage.span_seconds" in names
        for cat in ATTRIBUTION_CATEGORIES:
            assert f"lineage.{cat}_seconds" in names
        assert registry.value("lineage.messages") == len(analyzer.completed)

    def test_tables_render(self):
        _, ring = _traced_run(drop=0.02)
        analyzer = LineageAnalyzer.from_events(ring.events)
        assert "Per-message attribution" in analyzer.summary_table().render()
        assert "Lineage blame" in analyzer.blame_table().render()
        assert "Stragglers" in analyzer.straggler_table().render()
        msg0 = analyzer.completed[0]
        timeline = msg0.timeline().render()
        assert "tx" in timeline
        assert f"msg={msg0.msg}" in timeline


class TestFlowEvents:
    def test_retransmit_chains_linked_by_flow_ids(self):
        _, ring = _traced_run(drop=0.03, nack=True)
        starts = {
            e.args["flow_id"] for e in ring.events if e.ph == "s"
        }
        finishes = {
            e.args["flow_id"] for e in ring.events if e.ph == "f"
        }
        assert starts, "lossy run must emit retransmit flow starts"
        # Every flow arrow that lands on the wire originated at a trigger.
        assert finishes <= starts
