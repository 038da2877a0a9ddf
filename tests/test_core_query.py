"""Tests for the query algebra and parser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.query import (
    IntersectionSet,
    MAX_INTERSECTIONS,
    Query,
    Term,
    parse_query,
)
from repro.errors import QueryError, QueryParseError


class TestTerm:
    def test_str_token_encoded(self):
        assert Term("RAS").token == b"RAS"

    def test_bytes_token_kept(self):
        assert Term(b"RAS").token == b"RAS"

    def test_empty_token_rejected(self):
        with pytest.raises(QueryError):
            Term("")

    def test_token_with_space_rejected(self):
        with pytest.raises(QueryError):
            Term("two words")

    def test_negated_flips(self):
        term = Term("A")
        assert term.negated().negative
        assert not term.negated().negated().negative

    def test_str_rendering(self):
        assert str(Term("A", negative=True)) == 'NOT "A"'
        assert str(Term('"A"')) == """'"A"'"""


class TestIntersectionSet:
    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            IntersectionSet(terms=())

    def test_matches_all_positive(self):
        iset = IntersectionSet.of("RAS", "KERNEL")
        assert iset.matches_tokens([b"RAS", b"KERNEL", b"INFO"])
        assert not iset.matches_tokens([b"RAS", b"INFO"])

    def test_negative_term_blocks(self):
        iset = IntersectionSet.of(Term("RAS"), Term("FATAL", negative=True))
        assert iset.matches_tokens([b"RAS", b"INFO"])
        assert not iset.matches_tokens([b"RAS", b"FATAL"])

    def test_all_negative_set(self):
        iset = IntersectionSet.of(Term("FATAL", negative=True))
        assert iset.matches_tokens([b"anything"])
        assert not iset.matches_tokens([b"FATAL"])

    def test_contradiction_detection(self):
        iset = IntersectionSet.of(Term("A"), Term("A", negative=True))
        assert iset.is_contradictory
        assert not IntersectionSet.of("A", "B").is_contradictory


class TestQuery:
    def test_eq1_example(self):
        # (not A and B and C) or (not D and not E and F and G)
        query = Query.of(
            IntersectionSet.of(Term("A", negative=True), Term("B"), Term("C")),
            IntersectionSet.of(
                Term("D", negative=True), Term("E", negative=True), Term("F"), Term("G")
            ),
        )
        assert query.matches_tokens([b"B", b"C"])
        assert not query.matches_tokens([b"A", b"B", b"C"])
        assert query.matches_tokens([b"F", b"G"])
        assert not query.matches_tokens([b"F", b"G", b"E"])

    def test_empty_query_matches_nothing(self):
        assert not Query.of().matches_tokens([b"anything"])

    def test_union_concatenates(self):
        q = Query.single("A") | Query.single("B")
        assert len(q.intersections) == 2
        assert q.matches_tokens([b"A"])
        assert q.matches_tokens([b"B"])

    def test_simplified_drops_contradictions(self):
        q = Query.of(
            IntersectionSet.of(Term("A"), Term("A", negative=True)),
            IntersectionSet.of("B"),
        ).simplified()
        assert len(q.intersections) == 1

    def test_simplified_dedupes_intersections(self):
        q = Query.of(
            IntersectionSet.of("A", "B"), IntersectionSet.of("A", "B")
        ).simplified()
        assert len(q.intersections) == 1

    def test_all_tokens(self):
        q = Query.single(Term("A"), Term("B", negative=True))
        assert q.all_tokens == {b"A", b"B"}
        assert q.positive_tokens == {b"A"}

    def test_matches_line_uses_tokenizer(self):
        q = Query.single("RAS", "KERNEL")
        assert q.matches_line(b"R23-M0 RAS KERNEL INFO done\n")
        assert not q.matches_line(b"R23-M0 RASKERNEL INFO done\n")

    def test_too_many_intersections_rejected(self):
        sets = tuple(
            IntersectionSet.of(f"tok{i}") for i in range(MAX_INTERSECTIONS + 1)
        )
        with pytest.raises(QueryError):
            Query.of(*sets)


class TestParser:
    def test_single_token(self):
        q = parse_query("failed")
        assert q.matches_tokens([b"failed"])
        assert not q.matches_tokens([b"ok"])

    def test_quoted_token(self):
        q = parse_query('"pbs_mom:"')
        assert q.matches_tokens([b"pbs_mom:"])

    def test_paper_example(self):
        q = parse_query('"failed" AND NOT "pbs_mom:"')
        assert q.matches_tokens([b"failed"])
        assert not q.matches_tokens([b"failed", b"pbs_mom:"])

    def test_or_of_ands(self):
        q = parse_query("(A AND B) OR (C AND NOT D)")
        assert len(q.intersections) == 2
        assert q.matches_tokens([b"A", b"B"])
        assert q.matches_tokens([b"C"])
        assert not q.matches_tokens([b"C", b"D"])

    def test_not_over_parens_demorgan(self):
        q = parse_query("NOT (A OR B)")
        # becomes one intersection: NOT A AND NOT B
        assert len(q.intersections) == 1
        assert q.matches_tokens([b"C"])
        assert not q.matches_tokens([b"A"])
        assert not q.matches_tokens([b"B"])

    def test_not_over_and_distributes(self):
        q = parse_query("NOT (A AND B)")
        assert q.matches_tokens([b"A"])  # lacks B
        assert q.matches_tokens([b"B"])
        assert not q.matches_tokens([b"A", b"B"])

    def test_distribution_and_over_or(self):
        q = parse_query("A AND (B OR C)")
        assert len(q.intersections) == 2
        assert q.matches_tokens([b"A", b"B"])
        assert q.matches_tokens([b"A", b"C"])
        assert not q.matches_tokens([b"A"])

    def test_double_negation(self):
        q = parse_query("NOT NOT A")
        assert q.matches_tokens([b"A"])
        assert not q.matches_tokens([b"B"])

    def test_keywords_case_insensitive(self):
        q = parse_query("a and not b or c")
        assert q.matches_tokens([b"a"])
        assert q.matches_tokens([b"c"])
        assert not q.matches_tokens([b"a", b"b"])

    def test_contradictory_branch_dropped(self):
        q = parse_query("(A AND NOT A) OR B")
        assert len(q.intersections) == 1

    def test_empty_query_rejected(self):
        with pytest.raises(QueryParseError):
            parse_query("   ")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(QueryParseError):
            parse_query("(A AND B")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(QueryParseError):
            parse_query("A B")

    def test_dnf_blowup_guarded(self):
        clauses = " AND ".join(f"(a{i} OR b{i})" for i in range(12))
        with pytest.raises(QueryParseError):
            parse_query(clauses)

    def test_roundtrip_str_parse(self):
        q = parse_query('("failed" AND NOT "pbs_mom:") OR ciod')
        again = parse_query(str(q))
        assert again == q


@st.composite
def _random_query(draw, tokens=(b"A", b"B", b"C", b"D", b"E")):
    n_sets = draw(st.integers(1, 4))
    sets = []
    for _ in range(n_sets):
        n_terms = draw(st.integers(1, 4))
        terms = tuple(
            Term(draw(st.sampled_from(tokens)), negative=draw(st.booleans()))
            for _ in range(n_terms)
        )
        sets.append(IntersectionSet(terms=terms))
    return Query.of(*sets)


#: Tokens the query syntax itself uses: quotes of either kind, a
#: parenthesis, a keyword.
_SYNTAX_TOKENS = (b'"root"', b"it's", b"(x", b"AND")


class TestParserRoundTripProperty:
    @given(
        _random_query(tokens=(b"A", b"B", b"C") + _SYNTAX_TOKENS),
        st.lists(st.sampled_from((b"A", b"B", b"C", b"Z") + _SYNTAX_TOKENS), max_size=6),
    )
    @settings(max_examples=150)
    def test_render_parse_preserves_semantics(self, query, tokens):
        """str(query) -> parse_query is semantics-preserving."""
        simplified = query.simplified()
        if not simplified.intersections:
            return  # fully contradictory queries render to ''
        reparsed = parse_query(str(simplified))
        assert reparsed.matches_tokens(tokens) == simplified.matches_tokens(tokens)


class TestQueryProperties:
    @given(_random_query(), st.lists(st.sampled_from([b"A", b"B", b"C", b"D", b"E", b"X"]), max_size=6))
    @settings(max_examples=200)
    def test_union_is_or_of_members(self, query, tokens):
        for iset in query.intersections:
            if iset.matches_tokens(tokens):
                assert query.matches_tokens(tokens)
        if query.matches_tokens(tokens):
            assert any(i.matches_tokens(tokens) for i in query.intersections)

    @given(_random_query(), _random_query(), st.lists(st.sampled_from([b"A", b"B", b"C"]), max_size=5))
    @settings(max_examples=100)
    def test_union_operator_semantics(self, q1, q2, tokens):
        joined = q1 | q2
        assert joined.matches_tokens(tokens) == (
            q1.matches_tokens(tokens) or q2.matches_tokens(tokens)
        )

    @given(_random_query(), st.lists(st.sampled_from([b"A", b"B", b"C", b"D", b"E"]), max_size=6))
    @settings(max_examples=100)
    def test_simplification_preserves_semantics(self, query, tokens):
        assert query.matches_tokens(tokens) == query.simplified().matches_tokens(tokens)
