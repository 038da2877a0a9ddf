"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture()
def log_file(tmp_path):
    path = tmp_path / "test.log"
    code = main(
        ["generate", "--dataset", "BGL2", "--lines", "800", "--out", str(path)]
    )
    assert code == 0
    return path


@pytest.fixture()
def store(tmp_path, log_file):
    path = tmp_path / "store"
    code = main(["ingest", "--log", str(log_file), "--store", str(path)])
    assert code == 0
    return path


class TestGenerate:
    def test_generates_requested_lines(self, log_file):
        assert len(log_file.read_bytes().splitlines()) == 800

    def test_deterministic_with_seed(self, tmp_path):
        a, b = tmp_path / "a.log", tmp_path / "b.log"
        for out in (a, b):
            main(["--seed", "5", "generate", "--dataset", "Spirit2",
                  "--lines", "100", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestIngestAndQuery:
    def test_ingest_creates_store(self, store):
        assert (store / "pages.bin").exists()
        assert (store / "store.json").exists()

    def test_query_finds_lines(self, store, capsys):
        code = main(["query", "--store", str(store), "KERNEL AND INFO"])
        assert code == 0
        out = capsys.readouterr().out
        assert "matching lines" in out
        assert "GB/s effective" in out

    def test_query_no_index(self, store, capsys):
        code = main(["query", "--store", str(store), "--no-index", "FATAL"])
        assert code == 0
        assert "matching lines" in capsys.readouterr().out

    def test_query_stop_after_newest_first(self, store, capsys):
        code = main(
            ["query", "--store", str(store), "--stop-after", "3",
             "--newest-first", "RAS"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 matching lines" in out

    def test_query_explain(self, store, capsys):
        code = main(["query", "--store", str(store), "--explain", "RAS AND FATAL"])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "estimated candidates:" in out

    def test_query_limit(self, store, capsys):
        code = main(["query", "--store", str(store), "--limit", "2", "RAS"])
        assert code == 0
        out = capsys.readouterr().out
        assert "more (raise --limit" in out

    def test_query_sample_fraction(self, store, capsys):
        code = main(
            ["query", "--store", str(store), "--sample-fraction", "0.5",
             "--sample-seed", "7", "KERNEL"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sampled scan:" in out
        assert "estimated" in out and "CI" in out

    def test_query_sample_fraction_rejects_stop_after(self, store, capsys):
        code = main(
            ["query", "--store", str(store), "--sample-fraction", "0.5",
             "--stop-after", "3", "KERNEL"]
        )
        assert code == 2
        assert "cannot be combined" in capsys.readouterr().err

    def test_stats(self, store, capsys):
        code = main(["stats", "--store", str(store)])
        assert code == 0
        out = capsys.readouterr().out
        assert "lines: 800" in out
        assert "data pages:" in out

    def test_query_missing_store_fails_cleanly(self, tmp_path, capsys):
        code = main(["query", "--store", str(tmp_path / "none"), "x"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_query_fails_cleanly(self, store, capsys):
        code = main(["query", "--store", str(store), "(unbalanced"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExplainCommand:
    def test_explain_tree_estimate(self, store, capsys):
        code = main(["explain", "--store", str(store), "KERNEL AND INFO"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("EXPLAIN ")
        assert "EXPLAIN ANALYZE" not in out
        # estimate mode shows the access choice but no executed stages
        for node in ("plan:", "index_lookup", "scan", "(est)"):
            assert node in out
        assert "flash_read" not in out

    def test_explain_analyze_tree(self, store, capsys):
        code = main(
            ["explain", "--store", str(store), "--analyze", "KERNEL AND INFO"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "bottleneck:" in out
        assert "cache:" in out

    def test_explain_json_validates(self, store, capsys):
        import json as jsonlib

        from repro.obs.explain import validate_explain_report

        code = main(
            ["explain", "--store", str(store), "--analyze",
             "--format", "json", "KERNEL"]
        )
        assert code == 0
        payload = jsonlib.loads(capsys.readouterr().out)
        assert validate_explain_report(payload) >= 7

    def test_explain_out_writes_artifact(self, store, tmp_path, capsys):
        import json as jsonlib

        out_path = tmp_path / "explain.json"
        code = main(
            ["explain", "--store", str(store), "--analyze",
             "--out", str(out_path), "KERNEL"]
        )
        assert code == 0
        payload = jsonlib.loads(out_path.read_text())
        assert payload["mode"] == "analyze"

    def test_query_analyze_appends_report(self, store, capsys):
        code = main(["query", "--store", str(store), "--analyze", "KERNEL"])
        assert code == 0
        out = capsys.readouterr().out
        assert "matching lines" in out
        assert "EXPLAIN ANALYZE" in out
        assert "bottleneck:" in out

    def test_stats_human_renders_accelerator_rates(self, store, capsys):
        code = main(["stats", "--store", str(store)])
        assert code == 0
        out = capsys.readouterr().out
        assert "accelerator rates:" in out
        assert "filter pipelines:" in out
        assert "GB/s" in out

    def test_trace_utilization_counters(self, store, tmp_path):
        import json as jsonlib

        out_path = tmp_path / "trace.json"
        code = main(
            ["trace", "--store", str(store), "--utilization",
             "--out", str(out_path), "KERNEL"]
        )
        assert code == 0
        trace = jsonlib.loads(out_path.read_text())
        counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
        assert counters and all(
            e["name"].startswith("util:") for e in counters
        )


class TestWatchPerfCommand:
    def write(self, path, records):
        import json as jsonlib

        path.write_text(jsonlib.dumps(records))
        return str(path)

    def test_pass_exits_zero(self, tmp_path):
        path = self.write(
            tmp_path / "t.json",
            [{"bench": "b", "config": "c", "speedup": s} for s in (5.0, 5.1)],
        )
        assert main(["watch-perf", path]) == 0

    def test_regression_exits_one(self, tmp_path):
        path = self.write(
            tmp_path / "t.json",
            [{"bench": "b", "config": "c", "speedup": s} for s in (5.0, 3.0)],
        )
        assert main(["watch-perf", path]) == 1

    def test_bad_file_exits_two(self, tmp_path):
        assert main(["watch-perf", str(tmp_path / "nope.json")]) == 2

    def test_json_flag(self, tmp_path, capsys):
        import json as jsonlib

        path = self.write(
            tmp_path / "t.json",
            [{"bench": "b", "config": "c", "speedup": s} for s in (5.0, 5.0)],
        )
        assert main(["watch-perf", path, "--json"]) == 0
        verdict = jsonlib.loads(capsys.readouterr().out)
        assert verdict["regressions"] == []


class TestTagCommand:
    def test_tag_histogram(self, log_file, capsys):
        code = main(["tag", "--log", str(log_file), "--top", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lines tagged" in out
        assert "accelerator" in out


class TestTimeBoundedQuery:
    def test_since_until_flags(self, store, capsys):
        # the synthetic epochs start around 1117838570
        code = main(
            [
                "query", "--store", str(store),
                "--since", "0", "--until", "9999999999",
                "KERNEL",
            ]
        )
        assert code == 0
        assert "matching lines" in capsys.readouterr().out


class TestTemplatesAndCompress:
    def test_templates(self, log_file, capsys):
        code = main(["templates", "--log", str(log_file), "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "templates extracted" in out
        assert "query:" in out

    def test_compress(self, log_file, capsys):
        code = main(["compress", "--log", str(log_file)])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("LZAH", "LZRW1", "LZ4", "Snappy", "Gzip"):
            assert name in out

    def test_missing_log_fails_cleanly(self, tmp_path, capsys):
        code = main(["templates", "--log", str(tmp_path / "none.log")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestServeSim:
    def test_healthy_session_exits_zero(self, log_file, capsys):
        code = main(
            ["serve-sim", "--log", str(log_file), "--offered-qps", "300",
             "--duration", "0.05", "--max-loss", "0.9", "--json"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        assert '"submitted"' in out  # --json payload on stdout

    def test_degraded_session_exits_one(self, log_file, capsys):
        code = main(
            ["serve-sim", "--log", str(log_file), "--offered-qps", "50000",
             "--duration", "0.05", "--max-loss", "0.01"]
        )
        assert code == 1
        assert "exceeds" in capsys.readouterr().err

    def test_invalid_args_exit_two(self, log_file):
        assert main(["serve-sim", "--log", str(log_file), "--tenants", "0"]) == 2
        assert main(["serve-sim", "--log", str(log_file), "--duration", "-1"]) == 2
        assert main(
            ["serve-sim", "--log", str(log_file), "--offered-qps", "-5"]
        ) == 2
        assert main(
            ["serve-sim", "--log", str(log_file), "--max-loss", "1.5"]
        ) == 2

    def test_missing_log_exits_one(self, tmp_path, capsys):
        code = main(["serve-sim", "--log", str(tmp_path / "none.log")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestLoadgen:
    def test_sweep_writes_records(self, log_file, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(
            ["loadgen", "--log", str(log_file), "--multiples", "0.5,2",
             "--duration", "0.02", "--out", str(out)]
        )
        assert code == 0
        assert "measured capacity" in capsys.readouterr().out
        import json as _json

        records = _json.loads(out.read_text())
        assert [r["config"] for r in records] == ["load-x0.5", "load-x2"]
        assert all(r["bench"] == "service" for r in records)

    def test_blown_latency_budget_exits_one(self, log_file, capsys):
        code = main(
            ["loadgen", "--log", str(log_file), "--multiples", "2",
             "--duration", "0.02", "--p99-budget-ms", "0.0001"]
        )
        assert code == 1
        assert "exceeds budget" in capsys.readouterr().err

    def test_invalid_args_exit_two(self, log_file):
        assert main(["loadgen", "--log", str(log_file), "--multiples", "x"]) == 2
        assert main(["loadgen", "--log", str(log_file), "--multiples", ""]) == 2
        assert main(
            ["loadgen", "--log", str(log_file), "--multiples", "-1"]
        ) == 2
        assert main(["loadgen", "--log", str(log_file), "--tenants", "0"]) == 2


class TestWorkload:
    @pytest.fixture()
    def journal_path(self, log_file, tmp_path):
        path = tmp_path / "journal.json"
        code = main(
            ["loadgen", "--log", str(log_file), "--multiples", "0.5,2",
             "--duration", "0.02", "--journal-out", str(path)]
        )
        assert code == 0
        return path

    def test_loadgen_journal_has_one_window_per_level(self, journal_path):
        from repro.obs.journal import load_journal, validate_journal_payload

        journal = load_journal(journal_path)
        assert journal.windows() == ["load-x0.5", "load-x2"]
        assert journal.conserved()
        assert validate_journal_payload(journal.to_payload()) == []

    def test_serve_sim_journal_out(self, log_file, tmp_path, capsys):
        from repro.obs.journal import load_journal

        path = tmp_path / "serve.json"
        code = main(
            ["serve-sim", "--log", str(log_file), "--offered-qps", "300",
             "--duration", "0.05", "--max-loss", "0.9",
             "--journal-out", str(path)]
        )
        assert code == 0
        assert "query journal" in capsys.readouterr().out
        journal = load_journal(path)
        assert journal.windows() == ["serve-sim"]
        assert len(journal) > 0

    def test_mine_prints_slices(self, journal_path, capsys):
        code = main(
            ["workload", "mine", "--journal", str(journal_path), "--top", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hot templates:" in out
        assert "by tenant:" in out
        assert "by stage:" in out
        assert "by mode:" in out

    def test_mine_window_and_drift(self, journal_path, capsys):
        code = main(
            ["workload", "mine", "--journal", str(journal_path),
             "--window", "load-x2", "--drift-windows", "load-x0.5,load-x2"]
        )
        assert code == 0
        assert "drift load-x0.5 -> load-x2:" in capsys.readouterr().out

    def test_mine_json_out_validates(self, journal_path, tmp_path, capsys):
        import json as jsonlib

        out = tmp_path / "profile.json"
        code = main(
            ["workload", "mine", "--journal", str(journal_path),
             "--json", "--out", str(out)]
        )
        assert code == 0
        payload = jsonlib.loads(out.read_text())
        assert payload["kind"] == "mithrilog_workload_profile"
        # stdout carries log lines around the JSON block; slice it out
        printed = capsys.readouterr().out
        block = printed[printed.index("{") : printed.rindex("}") + 1]
        assert jsonlib.loads(block) == payload

    def test_mine_missing_window_exits_one(self, journal_path):
        assert main(
            ["workload", "mine", "--journal", str(journal_path),
             "--window", "nonesuch"]
        ) == 1

    def test_report_between_windows(self, journal_path, tmp_path, capsys):
        import json as jsonlib

        from repro.obs.report import validate_ab_report

        out = tmp_path / "ab.json"
        md = tmp_path / "ab.md"
        code = main(
            ["workload", "report", "--journal-a", str(journal_path),
             "--window-a", "load-x0.5", "--window-b", "load-x2",
             "--label-a", "calm", "--label-b", "storm",
             "--out", str(out), "--md-out", str(md)]
        )
        assert code == 0
        assert "`calm` vs `storm`" in capsys.readouterr().out
        payload = jsonlib.loads(out.read_text())
        assert validate_ab_report(payload) == []
        assert md.read_text().startswith("# A/B workload report")

    def test_report_single_journal_no_windows_exits_two(self, journal_path):
        assert main(
            ["workload", "report", "--journal-a", str(journal_path)]
        ) == 2

    def test_check_accepts_cli_artifacts(self, journal_path, tmp_path):
        from repro.obs.check import check_file

        out = tmp_path / "ab.json"
        code = main(
            ["workload", "report", "--journal-a", str(journal_path),
             "--window-a", "load-x0.5", "--window-b", "load-x2",
             "--out", str(out)]
        )
        assert code == 0
        assert check_file(journal_path) is None
        assert check_file(out) is None


class TestSLOCommands:
    @pytest.fixture()
    def config_path(self, tmp_path):
        import json as jsonlib

        path = tmp_path / "slo.json"
        path.write_text(jsonlib.dumps({
            "kind": "mithrilog_slo_config",
            "version": 1,
            "check_interval_s": 0.005,
            "slos": [{
                "name": "avail",
                "objective": "availability",
                "target": 0.9,
                "fast_window_s": 0.05,
                "slow_window_s": 0.25,
                "burn_threshold": 2.0,
                "resolve_after_s": 0.1,
            }],
        }))
        return path

    @pytest.fixture()
    def journal_path(self, log_file, tmp_path):
        path = tmp_path / "journal.json"
        code = main(
            ["serve-sim", "--log", str(log_file), "--offered-qps", "300",
             "--duration", "0.05", "--max-loss", "0.9",
             "--journal-out", str(path)]
        )
        assert code == 0
        return path

    def test_check_valid_config_exits_zero(self, config_path, capsys):
        assert main(["slo", "check", "--config", str(config_path)]) == 0
        assert "avail" in capsys.readouterr().out

    def test_check_invalid_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "mithrilog_slo_config", "version": 1, '
                       '"slos": [{"name": "x", "target": 5.0}]}')
        assert main(["slo", "check", "--config", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_check_replays_journal(self, config_path, journal_path, capsys):
        code = main(
            ["slo", "check", "--config", str(config_path),
             "--journal", str(journal_path), "--fail-on-alert"]
        )
        # healthy traffic: replay must not trip the alert
        assert code == 0

    def test_watch_writes_bundles_on_incident(
        self, config_path, log_file, tmp_path
    ):
        # build a journal whose tail is all shed traffic by overloading
        journal = tmp_path / "hot.json"
        code = main(
            ["serve-sim", "--log", str(log_file), "--offered-qps", "50000",
             "--duration", "0.05", "--max-loss", "1.0",
             "--journal-out", str(journal)]
        )
        assert code == 0
        bundles = tmp_path / "incidents"
        code = main(
            ["slo", "watch", "--journal", str(journal),
             "--config", str(config_path), "--bundle-out", str(bundles)]
        )
        assert code == 1  # alert fired during replay
        from repro.obs.check import check_file

        written = sorted(bundles.glob("incident-*.json"))
        assert written
        assert check_file(written[0]) is None

    def test_serve_sim_slo_flags(self, config_path, log_file, tmp_path, capsys):
        bundles = tmp_path / "incidents"
        code = main(
            ["serve-sim", "--log", str(log_file), "--offered-qps", "300",
             "--duration", "0.05", "--max-loss", "0.9",
             "--slo-config", str(config_path),
             "--bundle-out", str(bundles),
             "--journal-max-entries", "50"]
        )
        assert code == 0
        assert "SLO" in capsys.readouterr().out

    def test_loadgen_slo_flags(self, config_path, log_file, tmp_path, capsys):
        code = main(
            ["loadgen", "--log", str(log_file), "--multiples", "0.5",
             "--duration", "0.02", "--slo-config", str(config_path)]
        )
        assert code == 0
        assert "SLO" in capsys.readouterr().out

    def test_slo_config_artifact_checkable(self, config_path):
        from repro.obs.check import check_file

        assert check_file(config_path) is None
