"""Tests for query compilation and the bitmap hash filter (Figure 6)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import hashfilter
from repro.core.hashfilter import HashFilter, LineEvaluator, compile_queries
from repro.core.query import IntersectionSet, Query, Term, parse_query
from repro.core.tokenizer import Tokenizer
from repro.errors import CapacityError


def evaluate(program, line: bytes):
    words = Tokenizer().tokenize_line(line)
    return HashFilter(program).evaluate_words(words)


class TestCompilation:
    def test_simple_query_compiles(self):
        program = compile_queries([Query.single("RAS", "KERNEL")])
        assert program.num_queries == 1
        assert program.num_isets == 1
        assert program.table.occupied == 2

    def test_query_bitmap_has_positive_bits_only(self):
        query = Query.single(Term("A"), Term("B", negative=True))
        program = compile_queries([query])
        bitmap = program.query_bitmaps[0]
        row_a = program.table.lookup(b"A")[0]
        row_b = program.table.lookup(b"B")[0]
        assert bitmap & (1 << row_a)
        assert not bitmap & (1 << row_b)

    def test_no_queries_rejected(self):
        with pytest.raises(CapacityError):
            compile_queries([])

    def test_flag_pair_budget_enforced(self):
        queries = [Query.single(f"t{i}") for i in range(9)]
        with pytest.raises(CapacityError):
            compile_queries(queries)

    def test_eight_concurrent_queries_fit(self):
        queries = [Query.single(f"t{i}") for i in range(8)]
        program = compile_queries(queries)
        assert program.num_queries == 8
        assert program.iset_to_query == tuple(range(8))

    def test_shared_token_across_queries(self):
        q1 = Query.single("shared", "one")
        q2 = Query.single("shared", "two")
        program = compile_queries([q1, q2])
        assert program.table.occupied == 3  # 'shared' stored once

    def test_describe(self):
        program = compile_queries([Query.single("A")])
        assert "1 queries" in program.describe()


class TestProgramMemo:
    def test_a_hit_refreshes_recency(self):
        """The key asked for between every other one outlives any number
        of them; the bound holds and the untouched oldest is what goes."""
        memo: dict = {}
        built = []

        def ask(key):
            return hashfilter.memoized(
                memo, key, lambda: built.append(key) or ("program", key)
            )

        hot = ask("hot")
        ask("oldest")
        for i in range(2 * hashfilter.MEMO_ENTRIES):
            ask(i)
            assert ask("hot") is hot
        assert len(memo) == hashfilter.MEMO_ENTRIES
        assert built.count("hot") == 1
        assert "oldest" not in memo and 0 not in memo
        assert 2 * hashfilter.MEMO_ENTRIES - 1 in memo

    def test_a_failed_build_is_not_remembered(self):
        memo: dict = {}
        with pytest.raises(CapacityError):
            hashfilter.memoized(memo, "k", lambda: compile_queries([]))
        assert memo == {}


class TestPack:
    """What ``QueryScheduler.pack``'s tests do not reach through it."""

    def test_first_fit_goes_back_to_an_earlier_group(self):
        three = [
            parse_query(f"({p}1 AND {p}2) OR ({p}3 AND {p}4) OR ({p}5 AND {p}6)")
            for p in "abc"
        ]
        two = parse_query("(m AND n) OR (o AND p)")
        # 3 + 3 sets; the third 3 opens a group; the 2 still fits the first
        assert hashfilter.pack(three + [two]) == [(0, 1, 3), (2,)]

    def test_a_query_that_cannot_compile_stays_alone(self):
        big = Query(intersections=tuple(
            IntersectionSet.of(f"x{i}") for i in range(9)
        ))
        assert not hashfilter.fits([big])
        assert hashfilter.pack([Query.single("a"), big, Query.single("b")]) == [
            (0, 2), (1,)
        ]
        assert hashfilter.pack([]) == []


class TestFilterSemantics:
    def test_simple_presence(self):
        program = compile_queries([Query.single("RAS", "KERNEL")])
        assert evaluate(program, b"x RAS KERNEL INFO") == (True,)
        assert evaluate(program, b"x RAS INFO") == (False,)

    def test_negative_term(self):
        query = parse_query("RAS AND NOT FATAL")
        program = compile_queries([query])
        assert evaluate(program, b"RAS KERNEL INFO") == (True,)
        assert evaluate(program, b"RAS KERNEL FATAL") == (False,)

    def test_paper_equation_one(self):
        query = parse_query("(NOT A AND B AND C) OR (NOT D AND NOT E AND F AND G)")
        program = compile_queries([query])
        assert evaluate(program, b"B C x") == (True,)
        assert evaluate(program, b"A B C") == (False,)
        assert evaluate(program, b"F G") == (True,)
        assert evaluate(program, b"F G E") == (False,)
        assert evaluate(program, b"nothing here") == (False,)

    def test_all_negative_intersection(self):
        query = parse_query("NOT kernel")
        program = compile_queries([query])
        assert evaluate(program, b"userspace message") == (True,)
        assert evaluate(program, b"kernel panic") == (False,)

    def test_concurrent_queries_get_separate_verdicts(self):
        q1 = parse_query("failed")
        q2 = parse_query("panic AND NOT recovered")
        program = compile_queries([q1, q2])
        assert evaluate(program, b"job failed badly") == (True, False)
        assert evaluate(program, b"kernel panic now") == (False, True)
        assert evaluate(program, b"panic recovered ok") == (False, False)
        assert evaluate(program, b"failed panic") == (True, True)

    def test_duplicate_tokens_in_line_harmless(self):
        program = compile_queries([Query.single("A", "B")])
        assert evaluate(program, b"A A A B") == (True,)

    def test_empty_line(self):
        program = compile_queries([Query.single("A")])
        assert evaluate(program, b"") == (False,)

    def test_long_token_matching_via_overflow(self):
        long_token = b"a-very-long-token-exceeding-the-sixteen-byte-slot"
        program = compile_queries([Query.single(long_token)])
        assert program.table.overflow_used > 0
        assert evaluate(program, b"prefix " + long_token + b" suffix") == (True,)
        assert evaluate(program, b"prefix " + long_token[:-1] + b" suffix") == (False,)

    def test_prefix_of_query_token_does_not_match(self):
        program = compile_queries([Query.single("KERNELFATAL")])
        assert evaluate(program, b"KERNEL FATAL") == (False,)


def per_token_verdicts(program, tokens):
    """The reference for a pre-split line: its tokens fed one at a time
    through a :class:`LineEvaluator`."""
    evaluator = LineEvaluator(program)
    for token in tokens:
        evaluator.feed(token)
    return evaluator.query_verdicts()


class TestEvaluateTokens:
    """Pre-split lines: ``evaluate_token_lists``, one line or many."""

    def test_token_path_equals_word_path(self):
        query = parse_query("RAS AND NOT FATAL")
        program = compile_queries([query])
        filt = HashFilter(program)
        line = b"R00 RAS KERNEL INFO"
        tokens = [b"R00", b"RAS", b"KERNEL", b"INFO"]
        by_words = filt.evaluate_words(Tokenizer().tokenize_line(line))
        assert filt.evaluate_token_lists([tokens]) == [by_words]
        assert per_token_verdicts(program, tokens) == by_words

    def test_counters(self):
        program = compile_queries([Query.single("A")])
        filt = HashFilter(program)
        filt.evaluate_token_lists([[b"A", b"B"]])
        filt.evaluate_token_lists([[b"C"]])
        assert filt.lines_processed == 2
        assert filt.tokens_processed == 3


TOKENS = [b"A", b"B", b"C", b"D", b"E"]


@st.composite
def _hardware_sized_queries(draw):
    n_queries = draw(st.integers(1, 3))
    queries = []
    budget = 8
    for _ in range(n_queries):
        n_sets = draw(st.integers(1, min(2, budget)))
        budget -= n_sets
        sets = []
        for _ in range(n_sets):
            n_terms = draw(st.integers(1, 3))
            terms = []
            used = set()
            for _ in range(n_terms):
                token = draw(st.sampled_from(TOKENS))
                if token in used:
                    continue
                used.add(token)
                terms.append(Term(token, negative=draw(st.booleans())))
            if not terms:
                terms = [Term(b"A")]
            sets.append(IntersectionSet(terms=tuple(terms)))
        queries.append(Query.of(*sets))
    return queries


class TestOracleEquivalence:
    """The hardware filter must agree with the naive set semantics."""

    @given(
        _hardware_sized_queries(),
        st.lists(st.sampled_from(TOKENS + [b"X", b"Y"]), max_size=8),
    )
    @settings(max_examples=300)
    def test_filter_equals_oracle(self, queries, line_tokens):
        program = compile_queries(queries)
        expected = tuple(q.matches_tokens(line_tokens) for q in queries)
        assert per_token_verdicts(program, line_tokens) == expected
        assert HashFilter(program).evaluate_token_lists([line_tokens]) == [expected]

    @given(
        st.lists(
            st.binary(min_size=1, max_size=30).filter(
                lambda t: not any(d in t for d in b" \t\n")
            ),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        st.data(),
    )
    @settings(max_examples=100)
    def test_arbitrary_tokens_roundtrip(self, tokens, data):
        query = Query.single(*tokens[:3])
        program = compile_queries([query])
        line = b" ".join(data.draw(st.permutations(tokens)))
        assert evaluate(program, line) == (query.matches_line(line),)
