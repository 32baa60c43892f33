"""CLI entry points."""

import json

import pytest

from repro.cli import build_parser, main


class TestPlan:
    def test_plan_prints_ranking(self, capsys):
        assert main(
            ["plan", "--size-mib", "16", "--drop", "1e-4", "--samples", "200"]
        ) == 0
        out = capsys.readouterr().out
        assert "Reliability plan" in out
        assert "recommended:" in out
        assert "SR RTO" in out
        assert "EC MDS(32,8)" in out

    def test_plan_lossy_recommends_ec(self, capsys):
        main(["plan", "--size-mib", "128", "--drop", "1e-3", "--samples", "200"])
        out = capsys.readouterr().out
        recommended = out.strip().splitlines()[-1]
        assert "EC" in recommended

    def test_plan_clean_large_recommends_sr(self, capsys):
        main(
            ["plan", "--size-mib", "65536", "--drop", "1e-9",
             "--samples", "100"]
        )
        out = capsys.readouterr().out
        recommended = out.strip().splitlines()[-1]
        assert "SR" in recommended


class TestModel:
    def test_model_point(self, capsys):
        assert main(["model", "--size-mib", "32", "--samples", "300"]) == 0
        out = capsys.readouterr().out
        assert "Model point" in out
        assert "SR RTO" in out


class TestCampaign:
    def test_campaign_runs(self, capsys):
        assert main(["campaign", "--trials", "20"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out


class TestReport:
    def test_report_prints_layer_tables(self, capsys):
        assert main(
            ["report", "--messages", "2", "--size-mib", "1", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Run summary" in out
        assert "Channels (net.*)" in out
        assert "SDR endpoints (sdr.*)" in out
        assert "Reliability" in out
        assert "DPA workers" in out
        assert "dc-a<->dc-b.fwd" in out

    def test_report_ec_protocol(self, capsys):
        assert main(
            ["report", "--protocol", "ec", "--messages", "1",
             "--size-mib", "2", "--drop", "0.05", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "via EC" in out
        assert "ec" in out

    def test_report_adaptive_protocol(self, capsys):
        """``report`` takes every protocol ``run_demo`` does (one list)."""
        assert main(
            ["report", "--protocol", "adaptive", "--messages", "2",
             "--size-mib", "1", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "via ADAPTIVE" in out
        assert "\nadaptive " in out  # its own rows in the reliability table

    def test_report_bad_config_clean_error(self, capsys):
        assert main(["report", "--messages", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "messages" in err

    def test_report_trace_dumps(self, capsys, tmp_path):
        import json

        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        assert main(
            ["report", "--messages", "1", "--size-mib", "1", "--seed", "1",
             "--trace", str(chrome), "--trace-jsonl", str(jsonl)]
        ) == 0
        out = capsys.readouterr().out
        assert "Chrome trace written" in out
        assert "JSONL trace written" in out
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        assert all(json.loads(line) for line in jsonl.read_text().splitlines())


class TestChaos:
    def test_chaos_list_schedules(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        assert "blackout" in out
        assert "chaos-mix" in out
        assert "dpa-crash" in out

    def test_chaos_run_prints_summary_and_fault_table(self, capsys):
        assert main(
            ["chaos", "--schedule", "blackout", "--messages", "6",
             "--size-mib", "1", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Chaos run" in out
        assert "Faults (faults.*)" in out
        assert "fault" in out

    def test_chaos_unknown_schedule_clean_error(self, capsys):
        assert main(["chaos", "--schedule", "solar-flare"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err


class TestExplain:
    @pytest.fixture()
    def trace_path(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(
            ["report", "--messages", "2", "--size-mib", "1", "--seed", "1",
             "--drop", "0.02", "--trace-jsonl", str(path)]
        ) == 0
        capsys.readouterr()  # discard report output
        return path

    def test_explain_prints_attribution(self, capsys, trace_path):
        assert main(["explain", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "Per-message attribution" in out
        assert "Lineage blame" in out

    def test_explain_single_message_timeline(self, capsys, trace_path):
        assert main(["explain", str(trace_path), "--msg", "0"]) == 0
        out = capsys.readouterr().out
        assert "msg=0" in out

    def test_explain_unknown_message(self, capsys, trace_path):
        assert main(["explain", str(trace_path), "--msg", "999"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "999" in err

    def test_explain_missing_trace_exits_nonzero(self, capsys, tmp_path):
        assert main(["explain", str(tmp_path / "missing.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "cannot read" in err

    def test_explain_corrupt_trace_exits_nonzero(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        assert main(["explain", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "not a valid" in err

    def test_report_unwritable_trace_path_exits_nonzero(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "t.jsonl"
        assert main(
            ["report", "--messages", "1", "--size-mib", "1",
             "--trace-jsonl", str(target)]
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_report_includes_lineage_section(self, capsys):
        assert main(
            ["report", "--messages", "2", "--size-mib", "1", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Per-message attribution" in out
        assert "Lineage blame" in out


class TestExperiments:
    def test_experiments_subset(self, capsys):
        assert main(["experiments", "fig12"]) == 0
        out = capsys.readouterr().out
        assert "Figure 12" in out

    def test_experiments_unknown_figure(self, capsys):
        assert main(["experiments", "fig99"]) == 2


class TestFabricChaos:
    def test_chaos_survival_gate_passes(self, capsys):
        assert main(
            ["fabric", "--chaos", "tor_crash", "--min-survival", "0.99"]
        ) == 0
        out = capsys.readouterr().out
        assert "Fabric chaos: tor_crash" in out
        assert "Non-closed breakers" in out

    def test_chaos_json_payload(self, tmp_path):
        path = tmp_path / "chaos.json"
        assert main(
            ["fabric", "--chaos", "wan_flap", "--json", str(path)]
        ) == 0
        payload = json.loads(path.read_text())
        assert payload["preset"] == "chaos"
        assert payload["schedule"] == "wan_flap"
        assert payload["survival"] >= 0.99
        assert payload["reroute"]["path_changes"] > 0
        assert payload["edge_health"]["breaker_opens"] > 0
        assert payload["digest"]

    def test_chaos_static_routing_fails_gate(self, capsys):
        assert main(
            ["fabric", "--chaos", "tor_crash", "--no-health",
             "--min-survival", "0.99"]
        ) == 1
        err = capsys.readouterr().err
        assert "below required" in err

    def test_chaos_partition_exempt_from_delivery_error_gate(self, capsys):
        # A true partition ends flows in DeliveryError by design; without
        # --min-survival that is not a failure.
        assert main(["fabric", "--chaos", "fabric_partition"]) == 0

    def test_chaos_unknown_schedule_clean_error(self, capsys):
        assert main(["fabric", "--chaos", "solar-flare"]) == 2
        assert "unknown fabric chaos schedule" in capsys.readouterr().err

    def test_chaos_lineage_table(self, capsys):
        assert main(["fabric", "--chaos", "wan_flap", "--lineage"]) == 0
        out = capsys.readouterr().out
        assert "reroute_wait" in out


class TestMetricsExport:
    """Every runner exports the same ``{"meta", "metrics"}`` JSON shape."""

    def test_report_metrics_json(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(
            ["report", "--messages", "1", "--size-mib", "1", "--seed", "1",
             "--metrics-json", str(path)]
        ) == 0
        assert "Metrics JSON written" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert set(doc) == {"meta", "metrics"}
        assert doc["meta"]["command"] == "report"
        assert doc["meta"]["seed"] == 1
        assert any(k.startswith("net.") for k in doc["metrics"])

    def test_chaos_metrics_json(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(
            ["chaos", "--schedule", "blackout", "--messages", "4",
             "--size-mib", "1", "--seed", "1", "--metrics-json", str(path)]
        ) == 0
        doc = json.loads(path.read_text())
        assert set(doc) == {"meta", "metrics"}
        assert doc["meta"]["command"] == "chaos"
        assert doc["meta"]["schedule"] == "blackout"
        assert any(k.startswith("faults.") for k in doc["metrics"])

    def test_fabric_metrics_json(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(
            ["fabric", "--preset", "smoke", "--metrics-json", str(path)]
        ) == 0
        doc = json.loads(path.read_text())
        assert set(doc) == {"meta", "metrics"}
        assert doc["meta"]["command"] == "fabric"
        assert any(k.startswith("fabric.") for k in doc["metrics"])

    def test_report_openmetrics(self, capsys, tmp_path):
        path = tmp_path / "metrics.om"
        assert main(
            ["report", "--messages", "1", "--size-mib", "1", "--seed", "1",
             "--openmetrics", str(path)]
        ) == 0
        assert "OpenMetrics written" in capsys.readouterr().out
        text = path.read_text()
        assert text.endswith("# EOF\n")
        assert "# TYPE" in text

    def test_fabric_openmetrics(self, capsys, tmp_path):
        path = tmp_path / "metrics.om"
        assert main(
            ["fabric", "--preset", "smoke", "--openmetrics", str(path)]
        ) == 0
        text = path.read_text()
        assert text.endswith("# EOF\n")
        assert "fabric_tenant" in text


class TestTop:
    @pytest.fixture()
    def trace_path(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(
            ["report", "--messages", "2", "--size-mib", "1", "--seed", "1",
             "--drop", "0.02", "--trace-jsonl", str(path)]
        ) == 0
        capsys.readouterr()  # discard report output
        return path

    def test_top_renders_sparklines(self, capsys, trace_path):
        assert main(["top", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "== top:" in out
        assert "spark" in out
        assert "loss_drop" in out
        assert any(block in out for block in "▁▂▃▄▅▆▇█")

    def test_top_match_filter(self, capsys, trace_path):
        assert main(["top", str(trace_path), "--match", "loss"]) == 0
        out = capsys.readouterr().out
        assert "loss_drop" in out
        assert "rto_fire" not in out

    def test_top_no_match_clean_error(self, capsys, trace_path):
        assert main(["top", str(trace_path), "--match", "nonexistent"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_top_missing_trace_clean_error(self, capsys, tmp_path):
        assert main(["top", str(tmp_path / "missing.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestFabricSlo:
    def test_slo_summary_and_gate_pass(self, capsys):
        assert main(["fabric", "--preset", "smoke", "--slo"]) == 0
        out = capsys.readouterr().out
        assert "SLO compliance (slo.*)" in out

    def test_slo_gate_fails_under_static_routing_crash(self, capsys):
        # Static routing cannot absorb a ToR crash: delivery collapses
        # and the declared 0.9 target gates the exit status.
        assert main(
            ["fabric", "--chaos", "tor_crash", "--no-health", "--slo"]
        ) == 1
        captured = capsys.readouterr()
        assert "SLO compliance (slo.*)" in captured.out
        assert "out of compliance" in captured.err

    def test_chaos_json_includes_slo_block(self, tmp_path):
        path = tmp_path / "chaos.json"
        assert main(
            ["fabric", "--chaos", "tor_crash", "--slo", "--json", str(path)]
        ) == 0
        payload = json.loads(path.read_text())
        slo = payload["slo"]
        assert slo["compliant"] is True
        assert slo["windows_evaluated"] > 0
        assert slo["rows"]
        assert {"tenant", "sli", "target", "value"} <= set(slo["rows"][0])

    def test_fabric_trace_jsonl_feeds_top(self, capsys, tmp_path):
        # The whole loop: record a burning chaos run, view it in top.
        path = tmp_path / "run.jsonl"
        assert main(
            ["fabric", "--chaos", "tor_crash", "--no-health", "--slo",
             "--trace-jsonl", str(path)]
        ) == 1  # the SLO gate fires; the trace is still written
        out = capsys.readouterr().out
        assert "JSONL trace written" in out
        assert main(["top", str(path), "--match", "slo_burn"]) == 0
        assert "slo_burn" in capsys.readouterr().out

    def test_json_slo_block_null_when_unarmed(self, tmp_path):
        path = tmp_path / "chaos.json"
        assert main(
            ["fabric", "--chaos", "wan_flap", "--json", str(path)]
        ) == 0
        assert json.loads(path.read_text())["slo"] is None


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
