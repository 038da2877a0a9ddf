"""The artifact table: one row per JSON kind, one dispatcher over the rows.

``repro.obs.check.ARTIFACTS`` lists every JSON artifact kind the stack
writes. One scripted session produces a payload for each row; these tests
pin that the payload is recognised as exactly that row and validates,
that broken envelopes and non-artifacts come back as messages (never a
traceback), and that the docs list the same rows.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.analytics.workload import mine
from repro.core.query import parse_query
from repro.datasets.synthetic import generator_for
from repro.errors import QueryError
from repro.faults.injectors import ServiceFaultInjector
from repro.faults.schedules import AtOperationsSchedule
from repro.obs.artifacts import (
    MAX_PROBLEMS,
    capped,
    envelope_problems,
    read_json,
    write_json,
)
from repro.obs.check import ARTIFACTS, check_file, identify, main
from repro.obs.expose import snapshot, validate_snapshot
from repro.obs.journal import QueryJournal
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.recorder import FlightRecorder
from repro.obs.report import build_ab_report
from repro.obs.slo import SLO, SLOError, SLOMonitor, load_slo_config
from repro.obs.tracing import SpanTracer
from repro.service import QueryService, make_tenants, open_loop_requests, query_pool
from repro.stream import (
    StandingQuery,
    StandingQueryRegistry,
    build_stream_config,
    load_stream_config,
)
from repro.system.mithrilog import MithriLogSystem
from repro.system.streaming import StreamingIngestor

ROOT = Path(__file__).resolve().parent.parent
ROW_NAMES = [artifact.name for artifact in ARTIFACTS]
COMMITTED = sorted((ROOT / "examples").glob("*.json")) + [
    ROOT / "tests" / "data" / "explain_liberty2_session.json"
]


@pytest.fixture(scope="module")
def produced():
    """Row name -> a payload of that kind, all from one scripted session."""
    corpus = generator_for("Liberty2").generate(1500)
    slo = SLO(name="avail", target=0.9, burn_threshold=2.0)
    with use_registry(MetricsRegistry()) as registry:
        tracer = SpanTracer()
        system = MithriLogSystem(tracer=tracer)
        system.ingest(corpus)
        pool = query_pool(corpus, max_queries=8, seed=0)
        explain = system.query(pool[0], analyze=True).explain

        tenants = make_tenants(3)
        journal = QueryJournal()
        injector = ServiceFaultInjector(
            slow_passes=AtOperationsSchedule(range(5, 40)), slowdown=8.0
        )
        monitor = SLOMonitor([slo], interval_s=0.005)
        recorder = FlightRecorder(monitor, journal=journal, system=system)
        QueryService(
            system, tenants, max_backlog=8, journal=journal, monitor=monitor,
            fault_injector=injector,
        ).run(
            open_loop_requests(
                pool, tenants, offered_qps=700, duration_s=0.4, seed=0,
                deadline_s=0.05,
            )
        )

        streamed = MithriLogSystem()
        ingestor = StreamingIngestor(streamed, batch_lines=200)
        standing = StandingQueryRegistry(streamed)
        standing.attach(ingestor)
        errors = StandingQuery(name="errors", query=parse_query("error"))
        standing.register(errors)
        with ingestor:
            for line in corpus[:600]:
                ingestor.append(line)

        profile = mine(journal)
        payloads = {
            "Chrome trace": tracer.to_chrome_trace(),
            "explain report": explain.to_dict(),
            "query journal": journal.to_payload(),
            "A/B report": build_ab_report(profile, profile).to_payload(),
            "incident bundle": recorder.bundles[0],
            "SLO config": {
                "kind": "mithrilog_slo_config",
                "version": 1,
                "slos": [slo.to_dict()],
            },
            "stream config": build_stream_config([errors]),
            "stream status": standing.status_payload(),
            "metrics snapshot": snapshot(registry),
        }
    # what a reader of the written file would see
    return {name: json.loads(json.dumps(p)) for name, p in payloads.items()}


def test_every_row_has_a_producer(produced):
    assert sorted(produced) == sorted(ROW_NAMES)


@pytest.mark.parametrize("name", ROW_NAMES)
class TestEveryRow:
    def test_identifies_to_exactly_its_row_and_validates(self, produced, name):
        payload = produced[name]
        assert [a.name for a in ARTIFACTS if a.matches(payload)] == [name]
        row = identify(payload)
        assert row.name == name
        assert row.problems(payload) == []
        assert row.summary(payload)

    def test_check_file_accepts_the_written_file(self, produced, name, tmp_path):
        path = write_json(tmp_path / "sub" / "artifact.json", produced[name])
        assert check_file(path) is None
        assert main([str(path)]) == 0

    def test_wrong_version_is_a_problem(self, produced, name):
        payload = copy.deepcopy(produced[name])
        enveloped = "version" in payload
        payload["version"] = 99
        problems = identify(payload).problems(payload)
        if enveloped:
            assert len(problems) == 1 and "version 99" in problems[0]
        else:  # traces, explain reports and snapshots carry no envelope
            assert problems == []


class TestDispatch:
    @pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.name)
    def test_committed_artifacts_pass(self, path):
        assert check_file(path) is None

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("3", "unknown artifact"),
            ("null", "unknown artifact"),
            ("[]", "unknown artifact"),
            ('{"kind": "mithrilog_nonsense", "version": 1}', "unknown artifact"),
            ('{"metrics": 5}', "metrics must be an object"),
            ('{"traceEvents": [', "unreadable JSON"),
            ("\xff\xfe", "unreadable JSON"),
        ],
    )
    def test_non_artifacts_are_messages_not_tracebacks(
        self, tmp_path, capsys, text, fragment
    ):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text.encode("latin-1"))
        assert fragment in check_file(bad)
        assert main([str(bad)]) == 1
        assert fragment in capsys.readouterr().err

    def test_unknown_artifact_message_names_every_row(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        message = check_file(bad)
        assert all(name in message for name in ROW_NAMES)

    def test_exit_codes(self, tmp_path):
        assert main([]) == 2
        assert main([str(tmp_path / "missing.json")]) == 1
        note = tmp_path / "note.txt"
        note.write_text("hello")
        assert "unknown artifact type" in check_file(note)

    def test_docs_list_exactly_the_rows(self):
        text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
        section = text.split("## Artifacts", 1)[1].split("\n## ", 1)[0]
        documented = [
            line.split("|")[1].strip()
            for line in section.splitlines()
            if line.startswith("| ") and not line.startswith(("| name", "|--"))
        ]
        assert documented == ROW_NAMES


class TestSnapshotRow:
    def test_disabled_registry_snapshot_is_valid(self):
        assert validate_snapshot({"metrics": {}, "disabled": True}) == []
        assert validate_snapshot(snapshot(None)) == []

    @pytest.mark.parametrize(
        "entry, fragment",
        [
            (5, "type None is not counter"),
            ({"type": "summary", "samples": []}, "type 'summary' is not counter"),
            ({"type": ["counter"], "samples": []}, "is not counter"),
            ({"type": "counter"}, "needs list-valued samples"),
            ({"type": "histogram", "buckets": [1]}, "buckets and series"),
            ({"type": "gauge", "samples": []}, "not a gauge in the metric-family table"),
        ],
    )
    def test_malformed_entries(self, entry, fragment):
        problems = validate_snapshot({"metrics": {"mithrilog_query_total": entry}})
        assert len(problems) == 1 and fragment in problems[0]

    def test_mithrilog_names_must_be_table_rows(self):
        entry = {"type": "counter", "samples": []}
        assert validate_snapshot({"metrics": {"app_requests_total": entry}}) == []
        problems = validate_snapshot({"metrics": {"mithrilog_bogus_total": entry}})
        assert "not a counter in the metric-family table" in problems[0]

    def test_problem_list_is_capped(self):
        metrics = {f"m{i}": 5 for i in range(3 * MAX_PROBLEMS)}
        problems = validate_snapshot({"metrics": metrics})
        assert len(problems) == MAX_PROBLEMS + 1
        assert "suppressed" in problems[-1]


class TestSharedHelpers:
    def test_envelope_one_wording_for_every_kind(self):
        assert envelope_problems([1], "k", 1) == ["not an object"]
        assert envelope_problems({"kind": "x"}, "k", 1) == [
            "kind must be 'k', got 'x'"
        ]
        assert envelope_problems({"kind": "k", "version": 2}, "k", 1) == [
            "unsupported k version 2"
        ]
        assert envelope_problems({"kind": "k", "version": 1}, "k", 1) == []

    def test_capped_marks_the_list_once_full(self):
        problems = ["p"] * (MAX_PROBLEMS - 1)
        assert not capped(problems)
        problems.append("p")
        assert capped(problems)
        assert problems[-1].startswith("...")

    def test_read_json_raises_the_callers_error(self, tmp_path):
        with pytest.raises(SLOError, match="missing.json: unreadable SLO config"):
            load_slo_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": ')
        with pytest.raises(QueryError, match="unreadable stream config"):
            load_stream_config(bad)
        with pytest.raises(KeyError, match="unreadable thing"):
            read_json(bad, KeyError, "thing")

    def test_write_json_formats(self, tmp_path):
        path = write_json(tmp_path / "a" / "b.json", {"b": 1, "a": [2]})
        assert path.read_text() == '{\n "b": 1,\n "a": [\n  2\n ]\n}\n'
        write_json(path, {"b": 1, "a": 2}, indent=2, sort_keys=True, newline=False)
        assert path.read_text() == '{\n  "a": 2,\n  "b": 1\n}'
        assert read_json(path, ValueError, "file") == {"a": 2, "b": 1}
