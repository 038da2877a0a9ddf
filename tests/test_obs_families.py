"""The family table is the only declaration, and off means off.

``repro.obs.families.FAMILIES`` declares every ``mithrilog_*`` family
once; components bind rows with ``handle()`` and get the shared no-op
``NULL`` when the registry is off. These tests pin that contract from
the outside: source scans (no second declaration, no dead row, no
``is None`` guard), exposition that does not depend on construction
order, docs that name real families, and a whole session that computes
the same answers with metrics disabled as with them enabled.
"""

import ast
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.query import parse_query
from repro.datasets.synthetic import generator_for
from repro.exec.cache import PageCache
from repro.obs.expose import bootstrap_families, render_prometheus, snapshot
from repro.obs.families import FAMILIES
from repro.obs.journal import QueryJournal
from repro.obs.metrics import (
    NULL,
    MetricError,
    MetricsRegistry,
    get_registry,
    handle,
    use_registry,
)
from repro.obs.slo import SLOMonitor, default_slos
from repro.service import QueryService, make_tenants, open_loop_requests
from repro.stream import StandingQuery, StandingQueryRegistry
from repro.system.mithrilog import MithriLogSystem
from repro.system.streaming import StreamingIngestor
from repro.system.wal import JournaledMithriLog

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


class TestHandle:
    def test_binds_the_table_row(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            metric = handle("mithrilog_service_batch_size")
        row = FAMILIES["mithrilog_service_batch_size"]
        assert metric is registry.get("mithrilog_service_batch_size")
        assert (metric.kind, metric.help) == (row.kind, row.help)
        assert metric.buckets == row.buckets + (float("inf"),)

    def test_null_when_disabled_and_every_call_is_a_noop(self):
        with use_registry(None):
            null = handle("mithrilog_query_total")
        assert null is NULL
        null.inc(path="scan")
        null.dec()
        null.set(3.0, resource="flash")
        null.observe(0.5)

    def test_unknown_family_raises_on_or_off(self):
        with pytest.raises(MetricError):
            handle("mithrilog_no_such_total")
        with use_registry(None), pytest.raises(MetricError):
            handle("mithrilog_no_such_total")


def _calls(tree):
    """(callee name, first string-literal argument) of every call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        yield name, first.value


class TestOneDeclaration:
    def test_table_is_the_only_declaration(self):
        bound = set()
        for path in sorted(SRC.rglob("*.py")):
            source = path.read_text()
            assert not re.search(r"_m_\w+ is (not )?None", source), path
            for callee, literal in _calls(ast.parse(source)):
                if not literal.startswith("mithrilog_"):
                    continue
                if callee == "handle":
                    assert literal in FAMILIES, f"{path}: {literal} not in the table"
                    bound.add(literal)
                elif path.name != "metrics.py":
                    assert callee not in ("counter", "gauge", "histogram"), (
                        f"{path}: {literal} declared outside the table"
                    )
        assert bound == set(FAMILIES), "rows nothing binds: %s" % sorted(
            set(FAMILIES) - bound
        )

    def test_one_publishing_site_forks_on_the_registry(self):
        # NULL exists so nothing has to ask whether metrics are on. The one
        # site left is the index probe's footprint walk (ROADMAP item 1).
        forks = set()
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "metrics.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Compare) and any(
                    isinstance(n, ast.Name) and n.id == "NULL"
                    for n in (node.left, *node.comparators)
                ):
                    forks.add(path.relative_to(SRC).as_posix())
                if isinstance(node, ast.ImportFrom) and "NULL" in [
                    a.name for a in node.names
                ]:
                    forks.add(path.relative_to(SRC).as_posix())
        assert forks == {"index/inverted.py"}

    def test_bootstrap_registers_exactly_the_table(self):
        registry = MetricsRegistry()
        bootstrap_families(registry)
        assert [m.name for m in registry.collect()] == sorted(FAMILIES)

    def test_exposition_does_not_depend_on_construction_order(self):
        def build():
            PageCache()
            StandingQueryRegistry(MithriLogSystem(seed=0))

        bootstrap_first, components_first = MetricsRegistry(), MetricsRegistry()
        with use_registry(bootstrap_first):
            bootstrap_families()
            build()
        with use_registry(components_first):
            build()
            bootstrap_families()
        assert render_prometheus(bootstrap_first) == render_prometheus(
            components_first
        )

    def test_documented_families_exist(self):
        # the family table in docs/OBSERVABILITY.md: `mithrilog_x_*` is a
        # row prefix, a full name is a row
        rows = [
            line
            for line in (ROOT / "docs" / "OBSERVABILITY.md").read_text().splitlines()
            if line.startswith("| `mithrilog_")
        ]
        documented = {
            name for line in rows for name in re.findall(r"mithrilog_[a-z0-9_]+", line)
        }
        assert len(documented) >= 12
        for name in documented:
            assert any(row.startswith(name) for row in FAMILIES), name


def _session(store_dir):
    """One of everything that publishes a metric; returns what it computed."""
    corpus = generator_for("BGL2", seed=3).generate(1200)
    fatal, kernel = parse_query("FATAL"), parse_query("KERNEL AND NOT FATAL")

    journaled = JournaledMithriLog(store_dir, seed=0)
    journaled.ingest(corpus[:700])
    journaled.ingest(corpus[700:])
    system = journaled.system
    outcomes = [
        system.query(fatal),
        system.query(kernel, limit=5),
        system.query(fatal, kernel),
        system.query(kernel, sample_fraction=0.5, sample_seed=7),
        JournaledMithriLog.recover(store_dir, seed=0).query(fatal),
    ]

    monitor = SLOMonitor(default_slos())
    tenants = make_tenants(2)
    report = QueryService(
        system, tenants, journal=QueryJournal(), monitor=monitor
    ).run(
        open_loop_requests([fatal, kernel], tenants, offered_qps=2000,
                           duration_s=0.02, seed=1)
    )
    monitor.evaluate(1.0)

    streamed = MithriLogSystem(seed=0)
    ingestor = StreamingIngestor(streamed, batch_lines=100)
    standing = StandingQueryRegistry(streamed)
    standing.attach(ingestor)
    standing.register(StandingQuery(name="fatal", query=fatal))
    with ingestor:
        for line in corpus[:300]:
            ingestor.append(line)

    return {
        "queries": [
            (o.matched_lines, o.per_query_counts, replace(o.stats, host_profile={}))
            for o in outcomes
        ],
        "service": [(r.outcome, r.matches, r.latency_s) for r in report.responses],
        "slo": (monitor.evaluations, monitor.timeline()),
        "standing": (standing.evaluations, standing.status_payload()),
    }


class TestOffMeansOff:
    def test_disabled_session_matches_enabled_session(self, tmp_path):
        default_before = snapshot(get_registry())
        with use_registry(None):
            off = _session(tmp_path / "off")
        assert snapshot(get_registry()) == default_before
        with use_registry(MetricsRegistry()) as registry:
            on = _session(tmp_path / "on")
        assert off == on
        assert off["queries"][0][0], "the session must match something"
        assert registry.get("mithrilog_query_total").value(path="index") > 0

