"""Stream artifact kinds: config/status validators and the CLI loop."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.query import parse_query
from repro.errors import QueryError
from repro.obs.check import identify
from repro.stream import (
    STREAM_CONFIG_KIND,
    STREAM_STATUS_KIND,
    StandingQuery,
    StandingQueryRegistry,
    Threshold,
    WindowSpec,
    build_stream_config,
    load_stream_config,
    parse_stream_config,
    validate_stream_config,
    validate_stream_status,
)
from repro.system.mithrilog import MithriLogSystem
from repro.system.streaming import StreamingIngestor

REPO_ROOT = Path(__file__).resolve().parents[1]


def sample_queries():
    return [
        StandingQuery(
            name="errors",
            query=parse_query("ERROR"),
            window=WindowSpec(kind="sliding", width_s=0.05),
            threshold=Threshold(value=40.0),
        ),
        StandingQuery(name="shape", query=parse_query("req")),
    ]


class TestConfigArtifacts:
    def test_build_parse_round_trip(self):
        payload = build_stream_config(sample_queries(), check_interval_s=0.01)
        assert identify(payload).name == "stream config"
        assert validate_stream_config(payload) == []
        queries, interval = parse_stream_config(payload)
        assert interval == 0.01
        assert [q.to_dict() for q in queries] == [
            q.to_dict() for q in sample_queries()
        ]

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "stream.json"
        path.write_text(json.dumps(build_stream_config(sample_queries())))
        queries, interval = load_stream_config(path)
        assert len(queries) == 2
        assert interval == 0.005

    def test_unreadable_or_corrupt_files_rejected(self, tmp_path):
        with pytest.raises(QueryError):
            load_stream_config(tmp_path / "absent.json")
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        with pytest.raises(QueryError):
            load_stream_config(garbled)

    def test_example_config_validates(self):
        payload = json.loads(
            (REPO_ROOT / "examples" / "stream_config.json").read_text()
        )
        assert validate_stream_config(payload) == []

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda p: p.__setitem__("version", 99), "version"),
            (lambda p: p.__setitem__("check_interval_s", 0), "check_interval_s"),
            (lambda p: p.__setitem__("queries", []), "non-empty"),
            (
                lambda p: p["queries"][0].__delitem__("query"),
                "name and query",
            ),
            (
                lambda p: p["queries"][1].__setitem__(
                    "name", p["queries"][0]["name"]
                ),
                "duplicate",
            ),
            (
                lambda p: p["queries"][0].__setitem__("aggregates", ["p99"]),
                "aggregate",
            ),
            (
                lambda p: p["queries"][0]["window"].__setitem__("hop_s", 1),
                "unknown keys",
            ),
            (
                lambda p: p["queries"][0]["threshold"].__setitem__("op", ">"),
                "op",
            ),
        ],
    )
    def test_validator_catches_corruption(self, mutate, fragment):
        payload = build_stream_config(sample_queries())
        mutate(payload)
        problems = validate_stream_config(payload)
        assert problems
        assert any(fragment in problem for problem in problems)

    def test_kind_mismatch_short_circuits(self):
        assert validate_stream_config({"kind": "nope"}) != []
        assert validate_stream_config([1]) != []
        assert identify({"kind": STREAM_STATUS_KIND}).name == "stream status"

    def test_parse_raises_on_invalid(self):
        with pytest.raises(QueryError):
            parse_stream_config({"kind": STREAM_CONFIG_KIND, "version": 1})


class TestStatusArtifacts:
    @pytest.fixture()
    def snapshot(self):
        system = MithriLogSystem(seed=0)
        ingestor = StreamingIngestor(system, batch_lines=100)
        registry = StandingQueryRegistry(system)
        registry.attach(ingestor)
        for standing in sample_queries():
            registry.register(standing)
        with ingestor:
            for i in range(400):
                marker = b"ERROR" if i % 3 == 0 else b"INFO"
                ingestor.append(b"svc %s req=%d" % (marker, i))
        return registry.status_payload()

    def test_real_snapshot_validates(self, snapshot):
        assert identify(snapshot).name == "stream status"
        assert validate_stream_status(snapshot) == []

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda p: p.__setitem__("version", 0), "version"),
            (lambda p: p.__setitem__("evaluations", -1), "evaluations"),
            (
                lambda p: p["queries"][0].__setitem__("alert_state", "paging"),
                "alert_state",
            ),
            (
                lambda p: p["queries"][1].__setitem__("alert_state", "firing"),
                "without a threshold",
            ),
            (
                lambda p: p["queries"][0].__delitem__("window_state"),
                "window_state",
            ),
            (
                lambda p: p["queries"][0]["window_state"].__setitem__(
                    "matches_total", -2
                ),
                "matches_total",
            ),
            (
                lambda p: p["queries"][0]["definition"].__setitem__(
                    "aggregates", ["p99"]
                ),
                "definition",
            ),
            (
                lambda p: p["queries"][0]["window_state"]["series"][
                    "count"
                ].__setitem__("points", [[1.0, 1.0], [0.5, 1.0]]),
                "backwards",
            ),
            (
                lambda p: p["queries"][0]["window_state"]["series"][
                    "count"
                ].__setitem__("points", [[1.0]]),
                "malformed",
            ),
            (
                lambda p: p.__setitem__("monitor_timeline", "soon"),
                "monitor_timeline",
            ),
        ],
    )
    def test_validator_catches_corruption(self, snapshot, mutate, fragment):
        payload = json.loads(json.dumps(snapshot))
        mutate(payload)
        problems = validate_stream_status(payload)
        assert problems
        assert any(fragment in problem for problem in problems)

    def test_kind_mismatch_short_circuits(self):
        assert validate_stream_status({"kind": "nope"}) != []
        assert validate_stream_status(7) != []


class TestStreamCLI:
    @pytest.fixture()
    def burst_log(self, tmp_path):
        path = tmp_path / "burst.log"
        lines = []
        for i in range(1500):
            if 600 <= i < 1100:
                lines.append(f"svc ERROR backend timeout req={i}")
            else:
                lines.append(f"svc INFO served req={i}")
        path.write_text("\n".join(lines) + "\n")
        return path

    def register(self, tmp_path, name="errors", expression="ERROR"):
        config = tmp_path / "stream.json"
        code = main(
            [
                "stream",
                "register",
                "--name",
                name,
                "--expression",
                expression,
                "--window",
                "sliding",
                "--width-ms",
                "1000",
                "--threshold",
                "50",
                "--out",
                str(config),
            ]
        )
        assert code == 0
        return config

    def test_register_writes_a_valid_config(self, tmp_path):
        config = self.register(tmp_path)
        payload = json.loads(config.read_text())
        assert validate_stream_config(payload) == []
        assert payload["queries"][0]["name"] == "errors"

    def test_register_appends_and_refuses_duplicates(self, tmp_path):
        config = self.register(tmp_path)
        code = main(
            [
                "stream",
                "register",
                "--name",
                "shape",
                "--expression",
                "req",
                "--out",
                str(config),
            ]
        )
        assert code == 0
        payload = json.loads(config.read_text())
        assert [q["name"] for q in payload["queries"]] == ["errors", "shape"]
        # registering the same name again is an error, not a rewrite
        assert (
            main(
                [
                    "stream",
                    "register",
                    "--name",
                    "errors",
                    "--expression",
                    "x",
                    "--out",
                    str(config),
                ]
            )
            == 1
        )

    def test_status_detects_the_burst(self, tmp_path, burst_log, capsys):
        config = self.register(tmp_path)
        out_path = tmp_path / "status.json"
        code = main(
            [
                "stream",
                "status",
                "--config",
                str(config),
                "--log",
                str(burst_log),
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        assert "firing" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert validate_stream_status(payload) == []

    def test_fail_on_alert_exit_contract(self, tmp_path, burst_log):
        config = self.register(tmp_path)
        assert (
            main(
                [
                    "stream",
                    "status",
                    "--config",
                    str(config),
                    "--log",
                    str(burst_log),
                    "--fail-on-alert",
                ]
            )
            == 1
        )

    def test_clean_log_stays_quiet(self, tmp_path):
        config = self.register(tmp_path)
        clean = tmp_path / "clean.log"
        clean.write_text(
            "\n".join(f"svc INFO served req={i}" for i in range(800)) + "\n"
        )
        assert (
            main(
                [
                    "stream",
                    "status",
                    "--config",
                    str(config),
                    "--log",
                    str(clean),
                    "--fail-on-alert",
                ]
            )
            == 0
        )

    def test_bundle_out_writes_an_incident(self, tmp_path, burst_log):
        config = self.register(tmp_path)
        bundles = tmp_path / "incidents"
        code = main(
            [
                "stream",
                "status",
                "--config",
                str(config),
                "--log",
                str(burst_log),
                "--bundle-out",
                str(bundles),
            ]
        )
        assert code == 0
        assert list(bundles.glob("*.json"))
