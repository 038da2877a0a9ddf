"""Tests for the token filter engine: compilation, placement fallback and
the program it hands the scan kernel.

The engine evaluates no lines itself; every test that asks which lines a
program keeps runs them through the scan kernel under the system's
``scan_spec()`` — the one route every answer takes.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import TokenFilterEngine
from repro.core.query import Query, Term, parse_query
from repro.errors import QueryError
from repro.exec.executor import _partition_kernel
from repro.params import PROTOTYPE, CuckooParams
from repro.system.mithrilog import MithriLogSystem

LINES = [
    b"auth failure for user root from 1.2.3.4",
    b"pbs_mom: job 17 spawned",
    b"job 18 failed with signal 11",
    b"RAS KERNEL INFO all ok",
    b"job 19 failed pbs_mom: cleanup",
]


@pytest.fixture
def system():
    return MithriLogSystem()


def kept(system, *queries, lines=LINES):
    """Compile ``queries`` on the system's engine and run ``lines``
    through the kernel: ``(kept line indices, per-query counts)``."""
    system.engine.compile(*queries)
    items = [(True, b"\n".join(lines) + b"\n")] if lines else []
    result = _partition_kernel(system.scan_spec(), items)
    position = {line: i for i, line in enumerate(lines)}
    return [position[line] for line in result.data.splitlines()], list(
        result.per_query_counts
    )


class TestCompileAndFilter:
    def test_simple_offload(self, system):
        engine = system.engine
        assert engine.compile(parse_query("failed AND NOT pbs_mom:")) is True
        assert engine.offloaded
        assert system.scan_spec().offloaded
        assert kept(system, parse_query("failed AND NOT pbs_mom:"))[0] == [2]

    def test_multi_query_verdicts(self, system):
        rows, counts = kept(system, parse_query("failure"), parse_query("pbs_mom:"))
        assert rows == [0, 1, 4]
        assert counts == [1, 2]
        assert system.engine.program_summary()["queries"] == 2

    def test_filter_before_compile_rejected(self):
        with pytest.raises(QueryError):
            TokenFilterEngine().program_summary()

    def test_compile_without_queries_rejected(self):
        with pytest.raises(QueryError):
            TokenFilterEngine().compile()

    def test_recompile_replaces_program(self, system):
        system.engine.compile(parse_query("failed"))
        assert kept(system, parse_query("pbs_mom:"))[0] == [1, 4]
        assert system.engine.queries == (parse_query("pbs_mom:"),)

    def test_empty_batch(self, system):
        assert kept(system, parse_query("failed"), lines=[]) == ([], [0])

    def test_invalid_pipeline_count(self):
        with pytest.raises(ValueError):
            TokenFilterEngine(num_pipelines=0)


class TestSoftwareFallback:
    def test_oversized_query_falls_back(self, system):
        queries = [Query.single(f"token{i}") for i in range(9)]  # > 8 flag pairs
        assert system.engine.compile(*queries) is False
        assert not system.engine.offloaded and system.engine.program is None
        assert system.engine.program_summary()["mode"] == "software"
        rows, counts = kept(system, *queries, lines=[b"token3 here", b"nothing"])
        assert rows == [0] and counts[3] == 1 and sum(counts) == 1

    def test_fallback_matches_hardware_semantics(self):
        query = parse_query("(A AND NOT B) OR C")
        lines = [b"A x", b"A B", b"C", b"B C", b"x"]
        hardware = kept(MithriLogSystem(), query, lines=lines)
        padding = [Query.single(f"pad{i}") for i in range(8)]  # force fallback
        software_system = MithriLogSystem()
        software = kept(software_system, query, *padding, lines=lines)
        assert not software_system.engine.offloaded
        assert software[0] == hardware[0] == [0, 2, 3]

    def test_load_factor_overflow_falls_back(self):
        # tiny table: >4 tokens exceeds the 0.5 load factor
        system = MithriLogSystem(replace(PROTOTYPE, cuckoo=CuckooParams(rows=8)))
        query = Query.single(*(f"tk{i}" for i in range(6)))
        assert system.engine.compile(query) is False
        assert kept(system, query, lines=[b"tk0 tk1 tk2 tk3 tk4 tk5", b"tk0"])[0] == [0]


class TestEngineOracleEquivalence:
    @given(
        st.lists(
            st.lists(
                st.sampled_from([b"alpha", b"beta", b"gamma", b"delta", b"noise"]),
                max_size=5,
            ),
            min_size=1,
            max_size=20,
        ),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_engine_equals_query_oracle(self, token_lines, negate):
        """The compiled program, through ``system.query``, keeps exactly
        the lines the query oracle keeps."""
        query = Query.single(Term(b"alpha"), Term(b"beta", negative=negate))
        lines = [b" ".join(tokens) for tokens in token_lines]
        system = MithriLogSystem()
        system.ingest(lines)
        outcome = system.query(query)
        assert outcome.stats.offloaded
        assert outcome.matched_lines == [ln for ln in lines if query.matches_line(ln)]
