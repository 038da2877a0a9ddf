"""Tests for the multi-pipeline token filter engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import TokenFilterEngine
from repro.core.query import Query, Term, parse_query
from repro.errors import CapacityError, QueryError
from repro.params import CuckooParams

LINES = [
    b"auth failure for user root from 1.2.3.4",
    b"pbs_mom: job 17 spawned",
    b"job 18 failed with signal 11",
    b"RAS KERNEL INFO all ok",
    b"job 19 failed pbs_mom: cleanup",
]


@pytest.fixture
def engine():
    return TokenFilterEngine()


class TestCompileAndFilter:
    def test_simple_offload(self, engine):
        assert engine.compile(parse_query("failed AND NOT pbs_mom:")) is True
        assert engine.offloaded
        result = engine.filter_lines(LINES)
        assert result.offloaded
        assert result.kept_indices() == [2]

    def test_multi_query_verdicts(self, engine):
        engine.compile(parse_query("failure"), parse_query("pbs_mom:"))
        result = engine.filter_lines(LINES)
        assert result.num_queries == 2
        assert result.kept_indices(query=0) == [0]
        assert result.kept_indices(query=1) == [1, 4]
        assert result.kept_indices() == [0, 1, 4]
        assert result.kept_count() == 3

    def test_filter_before_compile_rejected(self, engine):
        with pytest.raises(QueryError):
            engine.filter_lines(LINES)

    def test_compile_without_queries_rejected(self, engine):
        with pytest.raises(QueryError):
            engine.compile()

    def test_recompile_replaces_program(self, engine):
        engine.compile(parse_query("failed"))
        engine.compile(parse_query("pbs_mom:"))
        result = engine.filter_lines(LINES)
        assert result.kept_indices() == [1, 4]

    def test_empty_batch(self, engine):
        engine.compile(parse_query("failed"))
        result = engine.filter_lines([])
        assert result.lines == 0
        assert result.kept_indices() == []

    def test_invalid_pipeline_count(self):
        with pytest.raises(ValueError):
            TokenFilterEngine(num_pipelines=0)


class TestSoftwareFallback:
    def test_oversized_query_falls_back(self):
        engine = TokenFilterEngine()
        queries = [Query.single(f"token{i}") for i in range(9)]  # > 8 flag pairs
        assert engine.compile(*queries) is False
        assert not engine.offloaded
        result = engine.filter_lines([b"token3 here", b"nothing"])
        assert not result.offloaded
        assert result.kept_indices(query=3) == [0]

    def test_fallback_matches_hardware_semantics(self):
        query = parse_query("(A AND NOT B) OR C")
        hw = TokenFilterEngine()
        hw.compile(query)
        sw = TokenFilterEngine()
        sw.compile(query, *[Query.single(f"pad{i}") for i in range(8)])  # force fallback
        assert not sw.offloaded
        lines = [b"A x", b"A B", b"C", b"B C", b"x"]
        assert [v[0] for v in sw.filter_lines(lines).verdicts] == hw.filter_lines(
            lines
        ).kept_any()

    def test_fallback_disabled_raises(self):
        engine = TokenFilterEngine(allow_software_fallback=False)
        queries = [Query.single(f"token{i}") for i in range(9)]
        with pytest.raises(CapacityError):
            engine.compile(*queries)

    def test_load_factor_overflow_falls_back(self):
        # tiny table: >4 tokens exceeds the 0.5 load factor
        engine = TokenFilterEngine(cuckoo_params=CuckooParams(rows=8))
        query = Query.single(*(f"tk{i}" for i in range(6)))
        assert engine.compile(query) is False
        result = engine.filter_lines([b"tk0 tk1 tk2 tk3 tk4 tk5", b"tk0"])
        assert result.kept_indices() == [0]


class TestEngineOracleEquivalence:
    @given(
        st.lists(
            st.lists(
                st.sampled_from([b"alpha", b"beta", b"gamma", b"delta", b"noise"]),
                max_size=5,
            ),
            max_size=20,
        ),
        st.booleans(),
    )
    @settings(max_examples=100)
    def test_engine_equals_query_oracle(self, token_lines, negate):
        query = Query.single(Term(b"alpha"), Term(b"beta", negative=negate))
        engine = TokenFilterEngine(num_pipelines=2)
        engine.compile(query)
        lines = [b" ".join(tokens) for tokens in token_lines]
        result = engine.filter_lines(lines)
        expected = [query.matches_line(line) for line in lines]
        assert result.kept_any() == expected
