"""Differential harness: vectorized scan path vs the reference kernels.

The reference kernel is the oracle; the numpy path (offset-array
tokenizer, bulk decoder, fact-matrix filter) must be
byte-for-byte equivalent to it on *arbitrary* inputs. Three layers of
evidence:

1. **Hypothesis** — randomized pages (structured log lines, multibyte
   UTF-8, raw binary including ``\\r``/NUL/empty-token shapes, tokens
   near the filter's 8-byte word key), codecs with randomized
   parameters, and randomized query programs.
2. **Replayable corpus** — ``corpus_cases.json`` pins every edge case
   worth keeping forever; new divergences found by randomization get
   appended there so they replay on every run without hypothesis.
3. **End-to-end invariance** — full scans must produce identical
   matches, per-query counts, and *simulated* stats (breakdown,
   bottleneck, profile) across kernel × workers.

Both tokenizers split lines as ``bytes.splitlines`` does (``\\n``,
``\\r`` and ``\\r\\n``), so every page, ``\\r`` or not, goes through the
same stages on each kernel; the stage-level checks below feed every page
to both filters. Kernel selection lives here too: the suite proves that
hosts without numpy land on the reference kernel and that an explicit
``vectorized`` fails loudly there.
"""

import base64
import json
from pathlib import Path

import pytest

try:
    from hypothesis import assume, given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

from repro.compression.lzah import LZAHCompressor
from repro.core import backend as backend_mod
from repro.core.backend import (
    BackendUnavailableError,
    numpy_or_none,
    resolve_backend,
    resolve_kernel,
)
from repro.core.hashfilter import HashFilter, compile_queries
from repro.core.query import IntersectionSet, Query, Term
from repro.core.softmatch import SoftwareBatchMatcher
from repro.core.tokenizer import tokenize_page
from repro.core.vectokenizer import tokenize_page_offsets
from repro.errors import CompressedFormatError
from repro.exec.executor import ScanProgramSpec, _partition_kernel, _run_text
from repro.params import CuckooParams, LZAHParams

#: Everything that drives the numpy kernel; the no-numpy CI leg skips it.
needs_numpy = pytest.mark.skipif(
    numpy_or_none() is None, reason="the vectorized kernel needs numpy"
)

CORPUS_PATH = Path(__file__).with_name("corpus_cases.json")
CORPUS = [
    (entry["name"], base64.b64decode(entry["b64"]))
    for entry in json.loads(CORPUS_PATH.read_text())["pages"]
]
CORPUS_IDS = [name for name, _ in CORPUS]
CORPUS_PAGES = [data for _, data in CORPUS]


#: Offloaded program: three queries the cuckoo table holds comfortably.
FILTER_QUERIES = (
    Query(intersections=(IntersectionSet(terms=(Term(token=b"session"),)),)),
    Query(
        intersections=(
            IntersectionSet(
                terms=(Term(token=b"svc"), Term(token=b"ERR", column=2))
            ),
        )
    ),
    Query(
        intersections=(
            IntersectionSet(
                terms=(
                    Term(token=b"opened"),
                    Term(token=b"admin", negative=True),
                )
            ),
        )
    ),
)

#: Software-fallback program: adds a pure-negative set on a long token.
SOFT_QUERIES = FILTER_QUERIES[:2] + (
    Query(
        intersections=FILTER_QUERIES[2].intersections
        + (IntersectionSet(terms=(Term(token=b"x" * 64, negative=True),)),)
    ),
)


def _rows(verdicts) -> list:
    """The numpy kernel's ``(lines × queries)`` verdict array as the
    reference kernel's list of per-line tuples."""
    return [tuple(row) for row in verdicts.tolist()]


def _assert_tokenization_matches(payload: bytes) -> None:
    """One page: offset arrays must re-materialise the reference output."""
    page = tokenize_page_offsets(payload)
    raw_lines, token_lists = page.to_token_lists()
    want_lines, want_tokens = tokenize_page(payload)
    assert raw_lines == want_lines
    assert token_lists == want_tokens
    # the offsets themselves must be consistent, not just the bytes
    assert page.num_lines == len(want_lines)
    assert page.num_tokens == sum(len(t) for t in want_tokens)
    every = numpy_or_none().arange(page.num_tokens)
    lines = page.lines_of(every)
    positions = page.positions(every, lines)
    assert positions.tolist() == [j for tokens in want_tokens for j in range(len(tokens))]
    for j, line in enumerate(lines.tolist()):
        start, end = int(page.token_starts[j]), int(page.token_ends[j])
        assert int(page.line_starts[line]) <= start < end <= int(page.line_ends[line])


def _spec(queries, offloaded: bool, kernel: str) -> ScanProgramSpec:
    return ScanProgramSpec(
        queries=tuple(queries),
        cuckoo_params=CuckooParams(),
        seed=0,
        offloaded=offloaded,
        lzah_params=LZAHParams(),
        kernel=kernel,
    )


def _stage_counts(stages) -> dict:
    return {name: (s.calls, s.units) for name, s in stages}


def _raised_or_returned(decode, streams) -> tuple:
    """``("ok", bytes)`` or ``("error", message)`` of ``decode(*streams)``."""
    try:
        return "ok", decode(*streams)
    except CompressedFormatError as exc:
        return "error", str(exc)


def _spec_decode(codec: LZAHCompressor, *streams: bytes) -> bytes:
    """The specification: each stream's ``decompress_words``, joined."""
    return b"".join(
        consumed for blob in streams for consumed, _p in codec.decompress_words(blob)
    )


def _decoder_outcomes(codec: LZAHCompressor, *streams: bytes) -> list:
    """What the specification and the bulk decoder make of a run of
    streams: ``("ok", bytes)`` or ``("error", message)``. Where the numpy
    kernel vouches for the run itself, its bytes are the specification's."""
    spec = _raised_or_returned(lambda *run: _spec_decode(codec, *run), streams)
    if numpy_or_none() is not None:
        decoded = codec._bulk_decode(streams)  # never raises
        if decoded is not None:
            assert spec == ("ok", decoded.tobytes())
    return [spec, _raised_or_returned(codec.decompress_into, streams)]


def _assert_kernels_agree(queries, offloaded: bool, pages) -> None:
    """Whole-partition equivalence: output bytes, per-query counts and
    deterministic stage calls/units match across the two kernels."""
    codec = LZAHCompressor()
    items = [(False, codec.compress(page)) for page in pages]
    ref, vec = (
        _partition_kernel(_spec(queries, offloaded, kernel), items, want_decoded=True)
        for kernel in ("reference", "vectorized")
    )
    assert vec.data == ref.data
    assert vec.per_query_counts == ref.per_query_counts
    assert vec.lines_seen == ref.lines_seen
    assert vec.lines_kept == ref.lines_kept
    assert vec.bytes_decompressed == ref.bytes_decompressed
    assert vec.decoded == ref.decoded
    assert _stage_counts(vec.stages) == _stage_counts(ref.stages)


# ---------------------------------------------------------------------------
# replayable corpus: every pinned page through both kernels
# ---------------------------------------------------------------------------


class TestCorpusReplay:
    @needs_numpy
    @pytest.mark.parametrize("payload", CORPUS_PAGES, ids=CORPUS_IDS)
    def test_tokenizer_matches_reference(self, payload):
        _assert_tokenization_matches(payload)

    @needs_numpy
    @pytest.mark.parametrize("payload", CORPUS_PAGES, ids=CORPUS_IDS)
    def test_filter_matches_reference(self, payload):
        _assert_kernels_agree(FILTER_QUERIES, True, [payload])
        page = tokenize_page_offsets(payload)
        program = compile_queries(FILTER_QUERIES, seed=0)
        fast = _rows(HashFilter(program).evaluate_token_arrays(page))
        _, token_lists = tokenize_page(payload)
        slow = HashFilter(program).evaluate_token_lists(token_lists)
        assert fast == slow

    @needs_numpy
    @pytest.mark.parametrize("payload", CORPUS_PAGES, ids=CORPUS_IDS)
    def test_softmatch_matches_query_oracle(self, payload):
        """The software-fallback batch matcher (no compiled table) agrees
        with per-line ``Query.matches_tokens`` on every pinned page."""
        _assert_kernels_agree(SOFT_QUERIES, False, [payload])
        page = tokenize_page_offsets(payload)
        fast = _rows(SoftwareBatchMatcher(SOFT_QUERIES).evaluate(page))
        _, token_lists = tokenize_page(payload)
        slow = [
            tuple(q.matches_tokens(tokens) for q in SOFT_QUERIES)
            for tokens in token_lists
        ]
        assert fast == slow

    @pytest.mark.parametrize("payload", CORPUS_PAGES, ids=CORPUS_IDS)
    def test_decoder_matches_reference(self, payload):
        codec = LZAHCompressor()
        blob = codec.compress(payload)
        assert codec.decompress_into(blob) == _spec_decode(codec, blob) == payload
        if numpy_or_none() is not None:
            assert codec._bulk_decode([blob]).tobytes() == payload


# ---------------------------------------------------------------------------
# the fact-matrix filter: exact under collisions, odd tokens, odd programs
# ---------------------------------------------------------------------------


def _assert_filter_exact(queries, payload: bytes) -> None:
    """Both routes into the fact-matrix evaluator equal the per-line
    query oracles on one page (the offloaded route when the program
    compiles, the software route always)."""
    from repro.errors import CapacityError, PlacementError

    queries = tuple(queries)
    page = tokenize_page_offsets(payload)
    _, token_lists = tokenize_page(payload)
    want = [tuple(q.matches_tokens(tokens) for q in queries) for tokens in token_lists]
    assert _rows(SoftwareBatchMatcher(queries).evaluate(page)) == want
    try:
        program = compile_queries(queries, seed=0)
    except (PlacementError, CapacityError):
        return
    assert _rows(HashFilter(program).evaluate_token_arrays(page)) == want
    assert HashFilter(program).evaluate_token_lists(token_lists) == want


def _fact_programs(queries) -> list:
    """The ``FactProgram`` of each route: software, and offloaded when
    the program compiles."""
    from repro.errors import CapacityError, PlacementError

    programs = [SoftwareBatchMatcher(tuple(queries)).program]
    try:
        programs.append(compile_queries(tuple(queries), seed=0).fact_program())
    except (PlacementError, CapacityError):
        pass
    return programs


def _query(*isets) -> Query:
    """``_query([(token, negative, column), ...], ...)``."""
    return Query(
        intersections=tuple(
            IntersectionSet(
                terms=tuple(Term(token=t, negative=n, column=c) for t, n, c in terms)
            )
            for terms in isets
        )
    )


@needs_numpy
class TestFactMatrixFilter:
    LONG = b"L" * 300
    PAGE = b"".join(
        line + b"\n"
        for line in (
            b"svc up ERR svc",
            b"ERR svc up",
            b"up\tsvc  ERR",
            b"nul\x00tok \xff\xfe high\x80 nul\x00tok",
            b"L" * 300 + b" " + b"L" * 299 + b"M " + b"L" * 301,
            b"L" * 256 + b" " + b"L" * 255,
            b"",
            b" \t ",
            b"cab abc bca",
            b"svc",
        )
    )

    #: Tokens at the word-key boundary: shared 8-byte prefixes, tokens
    #: equal to a fact only after zero padding, lengths 7/8/9/16/17 with
    #: their near misses, 302-byte tokens beside 9-byte facts, anagrams.
    WORD_PAGE = b"".join(
        line + b"\n"
        for line in (
            b"abcdefghX abcdefghY abcdefgh",
            b"abcdefgh abcdefghXY abcdefghX abcdefghZZZZZZZZZ",
            b"a a\x00 ab\x00\x00 ab \x00 \x00\x00",
            b"a\x00 ab\x00 ab\x00\x00\x00 \x00a",
            b"1234567 12345678 123456789 1234567890123456 12345678901234567",
            b"1234568 12345679 123456780 1234567890123457 12345678901234568",
            b"123456 1234567X 12345678X 123456789X 12345678901234567X",
            b"L" * 302 + b" LLLLLLLLL LLLLLLLLM " + b"L" * 301 + b"M",
            b"LLLLLLLLL " + b"L" * 302,
            b"cab abc bca",
        )
    )

    @pytest.mark.parametrize(
        "queries",
        [
            # three tokens sharing one 8-byte prefix, a column on the short one
            [_query([(b"abcdefghX", False, None)]), _query([(b"abcdefgh", False, 2)]),
             _query([(b"abcdefghX", False, None), (b"abcdefghY", True, None)])],
            # equal keys, unequal lengths: only zero padding tells them apart
            [_query([(b"a", False, None)]), _query([(b"a\x00", False, None)]),
             _query([(b"ab\x00\x00", False, None), (b"ab", True, None)]),
             _query([(b"\x00", False, 4)], [(b"\x00a", False, None)])],
            # lengths 7, 8, 9, 16 and 17 around the key's width
            [_query([(b"1234567", False, None)]), _query([(b"12345678", False, 1)]),
             _query([(b"123456789", False, None)]), _query([(b"1234567890123456", False, None)]),
             _query([(b"12345678901234567", False, None), (b"123456780", True, None)])],
            # the maximal collision: every fact has the key "abcdefgh"
            [_query([(b"abcdefgh", False, None)]), _query([(b"abcdefghX", False, 0)]),
             _query([(b"abcdefghY", False, None), (b"abcdefghXY", True, None)]),
             _query([(b"abcdefgh" + b"Z" * 9, False, None)])],
            # 302-byte tokens routed to 9-byte facts' key: the tail is
            # bounded by the fact, whichever fact the blob ends with
            [_query([(b"L" * 301 + b"M", False, None)]),
             _query([(b"LLLLLLLLL", False, None), (b"LLLLLLLLM", True, None)])],
            [_query([(b"LLLLLLLLM", False, None)], [(b"L" * 9, False, 0)]),
             _query([(b"L" * 301 + b"M", False, None)])],
            # anagrams: same bytes, other order
            [_query([(b"abc", False, None)], [(b"cab", False, 0), (b"bca", True, None)])],
        ],
        ids=["shared-prefix", "zero-padding", "lengths-7-to-17", "one-key",
             "long-token-short-fact-last", "long-token-long-fact-last", "anagrams"],
    )
    def test_word_keys_are_exact(self, queries):
        """Both routes, on tokens built to collide in or straddle the
        8-byte key; each program fits the hardware, so the offloaded
        route runs too."""
        compile_queries(tuple(queries), seed=0)
        _assert_filter_exact(queries, self.WORD_PAGE)

    @pytest.mark.parametrize(
        "payload",
        [b"a", b"x abc", b"12345678", b"svc\nx 123456789", b"q\n12345678901234567",
         b"L" * 301 + b"M"],
    )
    def test_a_key_read_at_the_end_of_the_buffer(self, payload):
        """The last token of a buffer with no trailing newline: its key
        reads past the text into the padding."""
        queries = [
            _query([(token, False, None)])
            for token in (b"a", b"abc", b"12345678", b"123456789", b"12345678901234567",
                          b"L" * 301 + b"M")
        ]
        compile_queries(tuple(queries), seed=0)
        _assert_filter_exact(queries, payload)
        page = tokenize_page_offsets(payload)
        assert True in _rows(SoftwareBatchMatcher(tuple(queries)).evaluate(page))[-1]

    @pytest.mark.parametrize(
        "queries",
        [
            # NUL and high bytes inside tokens
            [_query([(b"nul\x00tok", False, None)]), _query([(b"\xff\xfe", False, 1)]),
             _query([(b"high\x80", False, None), (b"nul\x00tok", True, 0)])],
            # tokens longer than 255 bytes, and their near misses
            [_query([(LONG, False, None)]), _query([(b"L" * 256, False, 0)]),
             _query([(b"L" * 299 + b"M", False, 1)]), _query([(b"L" * 302, False, None)])],
            # one token under two different columns (software only: a
            # cuckoo entry has one column field)
            [_query([(b"svc", False, 0)], [(b"svc", False, 3)]),
             _query([(b"svc", False, 1), (b"svc", True, 0)])],
            # one token under both polarities: across sets, and inside
            # one set (contradictory: matches nothing)
            [_query([(b"up", False, None)], [(b"up", True, None), (b"ERR", False, None)]),
             _query([(b"svc", False, None), (b"svc", True, None)])],
            # the same term twice in one set
            [_query([(b"svc", False, None), (b"svc", False, None), (b"up", False, None)])],
            # negative-only sets: keep every line without the token
            [_query([(b"svc", True, None)]), _query([(b"ERR", True, 0), (b"up", True, None)])],
            # a query with zero intersection sets matches nothing
            [Query(intersections=()), _query([(b"svc", False, None)])],
            [Query(intersections=())],
        ],
        ids=["nul-high", "long", "two-columns", "both-polarities", "duplicate-term",
             "negative-only", "empty-query-beside", "empty-query-alone"],
    )
    def test_edge_programs_and_tokens(self, queries):
        _assert_filter_exact(queries, self.PAGE)

    @pytest.mark.parametrize(
        "payload", [b"", b"\n", b"\n\n\n", b" \t \n\t\t\n", b"   ", b"\t\n" * 50]
    )
    def test_empty_and_whitespace_only_pages(self, payload):
        for queries in (FILTER_QUERIES, SOFT_QUERIES):
            _assert_filter_exact(queries, payload)

    #: ``alpha`` and ``delta`` both occur but never on one line; ``omega``
    #: and ``abcdefghYZ`` never occur, ``abcdefghY`` shares their key's
    #: first 8 bytes; ``svc`` sits at positions 0 and 1 only.
    REACH_PAGE = b"".join(
        line + b"\n"
        for line in (
            b"alpha beta",
            b"gamma delta",
            b"alpha gamma",
            b"beta delta noise",
            b"abcdefghY svc",
            b"svc x y z",
        )
    )

    def _early_out(self, queries) -> bool:
        """Both routes equal the oracles on :attr:`REACH_PAGE`, and agree
        on whether it takes the early-out (the default rows)."""
        _assert_filter_exact(queries, self.REACH_PAGE)
        page = tokenize_page_offsets(self.REACH_PAGE)
        outs = set()
        for program in _fact_programs(queries):
            hits = program._hits(numpy_or_none(), page)
            if hits is None:
                assert (program.evaluate(page) == program._default).all()
            outs.add(hits is None)
        assert len(outs) == 1
        return outs.pop()

    def test_keys_all_routed_but_never_on_one_line(self):
        """The set is reachable, so the full path runs, and decides
        nothing on any line."""
        queries = [_query([(b"alpha", False, None), (b"delta", False, None)])]
        assert not self._early_out(queries)
        page = tokenize_page_offsets(self.REACH_PAGE)
        assert not SoftwareBatchMatcher(tuple(queries)).evaluate(page).any()

    def test_a_positive_key_absent_takes_the_default_rows(self):
        assert self._early_out([_query([(b"alpha", False, None), (b"omega", False, None)])])
        # the default row holds True where a need-0 set has no routed token
        assert self._early_out(
            [_query([(b"alpha", False, None), (b"omega", False, None)]),
             _query([(b"omega", True, None)])]
        )

    def test_a_negative_only_set_beside_an_unreachable_set(self):
        """The negative-only set needs nothing, so it is reachable and its
        veto on ``beta``'s lines survives."""
        queries = [_query([(b"alpha", False, None), (b"omega", False, None)],
                          [(b"beta", True, None)])]
        assert not self._early_out(queries)
        page = tokenize_page_offsets(self.REACH_PAGE)
        verdicts = SoftwareBatchMatcher(tuple(queries)).evaluate(page)[:, 0].tolist()
        assert verdicts == [False, True, True, False, True, True]

    @pytest.mark.parametrize(
        "terms",
        [[(b"alpha", False, None), (b"alpha", True, None)],
         [(b"alpha", False, None), (b"beta", False, None), (b"beta", True, None)]],
        ids=["one-token", "beside-another"],
    )
    def test_a_contradictory_set(self, terms):
        """Reachable whenever its keys are routed, and matching nothing."""
        assert not self._early_out([_query(terms)])

    @pytest.mark.parametrize(
        "fact",
        [(b"abcdefghX", None), (b"abcdefghYZ", None), (b"abcdefgh", None), (b"svc", 3)],
        ids=["other-tail", "longer", "shorter", "other-column"],
    )
    def test_a_key_routed_by_a_token_that_is_not_the_fact(self, fact):
        """Routing is a superset of fact hits: the set looks reachable, the
        full path runs, and verification says no. (The second query's
        9-byte fact lets ``abcdefghY`` past the length prefilter.)"""
        token, column = fact
        queries = [_query([(token, False, column)]), _query([(b"x" * 9, False, None)])]
        assert not self._early_out(queries)
        page = tokenize_page_offsets(self.REACH_PAGE)
        assert not SoftwareBatchMatcher(tuple(queries)).evaluate(page).any()

    def test_only_one_query_of_two_is_reachable(self):
        """The reachable query is decided as before; the facts only the
        unreachable one uses (``gamma``) are dropped, not verified."""
        queries = [_query([(b"alpha", False, None), (b"beta", False, None)]),
                   _query([(b"gamma", False, None), (b"omega", False, None)])]
        assert not self._early_out(queries)
        page = tokenize_page_offsets(self.REACH_PAGE)
        program = SoftwareBatchMatcher(tuple(queries)).program  # facts in term order
        lines, facts = program._hits(numpy_or_none(), page)
        assert sorted(zip(lines.tolist(), facts.tolist())) == [(0, 0), (0, 1), (2, 0), (3, 1)]

    def test_filter_cost_is_flat_in_query_count(self):
        """Structural flatness (the paper's Figure 14 / Table 6 property
        on the host clock): on a fixed 35-page corpus plus one page that
        routes keys but completes no set, the evaluator executes one of
        two numbers of Python lines per page (the early-out or the full
        path), the same two whether 1 or 16 pool queries are registered
        — no loop's trip count grows with queries, terms or candidate
        tokens."""
        import sys

        from repro.core import factmatrix
        from repro.datasets.synthetic import generator_for
        from repro.service import query_pool

        lines = generator_for("Liberty2", seed=1).generate(3010)
        pool = query_pool(lines, max_queries=32, seed=2021, num_pairs=8)
        pages = [
            tokenize_page_offsets(b"".join(ln + b"\n" for ln in lines[i : i + 86]))
            for i in range(0, len(lines), 86)
        ]
        assert len(pages) == 35 and len(pool) >= 16
        one = compile_queries(pool[:1], seed=0).fact_program()
        sixteen = SoftwareBatchMatcher(tuple(pool[:16])).program
        assert sixteen.num_facts > 4 * one.num_facts
        # a line holding every positive token of the first template but
        # one: it routes keys of both programs and completes no set
        positives = [t.token for t in pool[0].intersections[0].terms if not t.negative]
        pages.append(tokenize_page_offsets(b" ".join(positives[:-1]) + b"\n"))
        code_file = factmatrix.__file__

        def lines_executed(program, page) -> int:
            executed = 0

            def tracer(frame, event, _arg):
                nonlocal executed
                if frame.f_code.co_filename != code_file:
                    return None
                if event == "line":
                    executed += 1
                return tracer

            sys.settrace(tracer)
            try:
                program.evaluate(page)
            finally:
                sys.settrace(None)
            return executed

        def per_path(program) -> dict:
            """``{takes the early-out: {line counts of its pages}}``."""
            counts: dict = {True: set(), False: set()}
            for page in pages:
                early_out = program._hits(numpy_or_none(), page) is None
                counts[early_out].add(lines_executed(program, page))
            return counts

        assert one._hits(numpy_or_none(), pages[-1]) is None
        assert sixteen._hits(numpy_or_none(), pages[-1]) is None
        per_page_one, per_page_sixteen = per_path(one), per_path(sixteen)
        # each path occurs, and runs one line count whatever the page and
        # whether 1 or 16 queries are registered
        for path in (True, False):
            assert len(per_page_one[path]) == 1
            assert per_page_one[path] == per_page_sixteen[path]


# ---------------------------------------------------------------------------
# the bulk decoder: structural corruption, not just bit flips
# ---------------------------------------------------------------------------


def _chunk_boundaries(codec: LZAHCompressor, blob: bytes) -> list:
    """Stream offsets where each chunk's header, payloads and padding end."""
    p = codec.params
    header_bytes = p.pairs_per_chunk // 8
    remaining = int.from_bytes(blob[4:8], "little")
    pos, marks = 12, []
    while remaining > 0:
        header = int.from_bytes(blob[pos : pos + header_bytes], "little")
        in_chunk = min(remaining, p.pairs_per_chunk)
        matches = bin(header & ((1 << in_chunk) - 1)).count("1")
        marks.append(pos + header_bytes)
        pos += header_bytes + 2 * matches + (in_chunk - matches) * p.word_bytes
        marks.append(pos)
        pos += -(pos - 12) % p.word_bytes
        marks.append(pos)
        remaining -= in_chunk
    return marks


def _first_match_offset(codec: LZAHCompressor, blob: bytes) -> int:
    """Stream offset of the first match index of the first chunk."""
    p = codec.params
    header = int.from_bytes(blob[12 : 12 + p.pairs_per_chunk // 8], "little")
    assert header, "the first chunk holds no match"
    pos = 12 + p.pairs_per_chunk // 8
    while not header & 1:
        pos += p.word_bytes
        header >>= 1
    return pos


class TestBulkDecoderFuzz:
    #: 64-byte lines first, so every word size re-meets whole words (and
    #: the first chunk holds matches) with or without newline realignment
    PAYLOAD = (b"kernel: eth0 link is up, 1000 Mbps full duplex, flow control rx\n" * 6) + b"".join(
        b"Jan %2d 03:%02d:%02d host%d sshd[%d]: session opened for user u%d\n"
        % (i % 28 + 1, i % 60, i * 7 % 60, i % 5, 1000 + i * 13, i % 9)
        for i in range(160)
    )

    @pytest.fixture(
        params=[(w, r) for w in (8, 16, 32) for r in (True, False)],
        ids=lambda wr: f"w{wr[0]}-{'realign' if wr[1] else 'fixed'}",
    )
    def codec(self, request):
        word_bytes, realign = request.param
        return LZAHCompressor(
            LZAHParams(word_bytes=word_bytes, newline_realign=realign)
        )

    def _agree(self, codec, blob: bytes, want=None) -> None:
        """The bulk decoder agrees with the specification on ``blob``
        alone and with ``blob`` first, middle and last in a 3-stream run:
        the same bytes, or the same refusal message (for a run, its first
        bad stream's). ``want`` is ``("ok", text)`` or ``("error", None)``."""
        outcomes = _decoder_outcomes(codec, blob)
        assert outcomes[0] == outcomes[1]
        if want is not None:
            kind, value = outcomes[0]
            assert (kind, value if kind == "ok" else None) == want
        neighbours = [
            codec.compress(self.PAYLOAD[:700]),  # no trailing newline
            codec.compress(b"svc up ERR\n" * 40),
        ]
        for at in range(3):
            run = neighbours[:at] + [blob] + neighbours[at:]
            spec, bulk = _decoder_outcomes(codec, *run)
            assert bulk == spec

    def test_clean_stream_takes_the_bulk_path(self, codec):
        blob = codec.compress(self.PAYLOAD)
        assert len(_chunk_boundaries(codec, blob)) >= 9  # three chunks or more
        self._agree(codec, blob, want=("ok", self.PAYLOAD))
        if numpy_or_none() is not None:
            assert bytes(codec._bulk_decode([blob])) == self.PAYLOAD
            empty, short = codec.compress(b""), codec.compress(b"x" * 5)
            run = [blob, empty, short, blob]
            assert bytes(codec._bulk_decode(run)) == self.PAYLOAD + b"x" * 5 + self.PAYLOAD
            assert bytes(codec._bulk_decode([empty])) == b""

    @needs_numpy
    def test_crc_table_equals_zlib(self, codec):
        """The literal-slot table is ``zlib.crc32``, bit for bit."""
        import zlib

        from repro.compression.lzah import word_crc32

        np = numpy_or_none()
        width = codec.params.word_bytes
        words = np.random.default_rng(width).integers(0, 256, (200, width), dtype=np.uint8)
        words = np.vstack(
            [words, np.zeros((1, width), np.uint8), np.full((1, width), 0xFF, np.uint8)]
        )
        want = [zlib.crc32(word.tobytes()) for word in words]
        assert word_crc32(np, words).tolist() == want

    def test_truncation_at_every_chunk_boundary(self, codec):
        blob = codec.compress(self.PAYLOAD)
        cuts = {
            cut + delta
            for cut in [0, 4, 8, 12] + _chunk_boundaries(codec, blob)
            for delta in (-1, 0, 1)
        }
        for cut in sorted(c for c in cuts if 0 <= c < len(blob)):
            self._agree(codec, blob[:cut])
        # bytes past the stream's last chunk are never read
        self._agree(codec, blob + b"\x00" * 7, want=("ok", self.PAYLOAD))

    def test_overwritten_match_indices(self, codec):
        blob = bytearray(codec.compress(self.PAYLOAD))
        at = _first_match_offset(codec, bytes(blob))
        slots = codec.params.hash_table_slots
        used = {codec._hash(padded) for _c, padded in codec.decompress_words(bytes(blob))}
        empty = next(s for s in range(slots) if s not in used)
        for slot in (slots, 0xFFFF, empty):
            blob[at : at + 2] = slot.to_bytes(2, "little")
            self._agree(codec, bytes(blob), want=("error", None))
        other = next(s for s in sorted(used) if s.to_bytes(2, "little") != blob[at : at + 2])
        blob[at : at + 2] = other.to_bytes(2, "little")  # a live slot, wrong word
        self._agree(codec, bytes(blob))

    def test_lying_length_and_pair_count(self, codec):
        blob = codec.compress(self.PAYLOAD)
        total_len = int.from_bytes(blob[0:4], "little")
        num_pairs = int.from_bytes(blob[4:8], "little")
        for lie in (0, 1, total_len - 1, total_len + 1, total_len * 2, 2**32 - 1):
            self._agree(codec, lie.to_bytes(4, "little") + blob[4:], want=("error", None))
        for lie in (0, 1, num_pairs - 1, num_pairs + 1, num_pairs * 2, 2**32 - 1):
            self._agree(
                codec, blob[:4] + lie.to_bytes(4, "little") + blob[8:],
                want=("error", None),
            )

    #: every refusal the specification has, and a stream that draws it
    REFUSALS = {
        "shorter than its header": lambda blob, at, empty: blob[:11],
        "truncated LZAH chunk header": lambda blob, at, empty: blob[:12],
        "truncated LZAH match index": lambda blob, at, empty: blob[: at + 1],
        "outside table": lambda blob, at, empty: (
            blob[:at] + (0xFFFF).to_bytes(2, "little") + blob[at + 2 :]
        ),
        "references empty slot": lambda blob, at, empty: (
            blob[:at] + empty.to_bytes(2, "little") + blob[at + 2 :]
        ),
        "truncated LZAH literal word": lambda blob, at, empty: blob[: at - 1],
        "bytes but decoded": lambda blob, at, empty: (
            (int.from_bytes(blob[:4], "little") + 1).to_bytes(4, "little") + blob[4:]
        ),
        "checksum mismatch": lambda blob, at, empty: (
            blob[:8] + bytes([blob[8] ^ 1]) + blob[9:]
        ),
    }

    @pytest.mark.parametrize("message", list(REFUSALS))
    def test_every_refusal_reads_alike(self, codec, message):
        """Each of the specification's eight refusals, alone and in every
        run position: the bulk decoder defers and raises its message."""
        blob = codec.compress(self.PAYLOAD)
        at = _first_match_offset(codec, blob)  # a literal word ends here
        used = {codec._hash(padded) for _c, padded in codec.decompress_words(blob)}
        empty = min(set(range(codec.params.hash_table_slots)) - used)
        bad = self.REFUSALS[message](blob, at, empty)
        with pytest.raises(CompressedFormatError, match=message):
            _spec_decode(codec, bad)
        self._agree(codec, bad, want=("error", None))
        if numpy_or_none() is not None:
            assert codec._bulk_decode([bad]) is None


# ---------------------------------------------------------------------------
# hypothesis: randomized pages, codecs, query programs
# ---------------------------------------------------------------------------

if HAVE_HYPOTHESIS:
    VOCAB = [
        b"session", b"opened", b"closed", b"root", b"admin", b"svc", b"ERR",
        b"kernel", b"x" * 64, "日誌".encode(), "café".encode(), b"0", b"a b".replace(b" ", b""),
    ]

    log_line = st.lists(
        st.sampled_from(VOCAB + [b"", b" ", b"\t"]), min_size=0, max_size=8
    ).map(lambda parts: b" ".join(parts))

    structured_page = st.lists(log_line, min_size=0, max_size=20).map(
        lambda lines: b"".join(ln + b"\n" for ln in lines)
    )

    # raw binary exercises \r, NUL, multibyte fragments, unterminated tails
    binary_page = st.binary(min_size=0, max_size=512)

    any_page = st.one_of(structured_page, binary_page)

    #: every line terminator of ``bytes.splitlines`` and the pairs that
    #: straddle them, beside bytes it does *not* split on (VT, FF, FS,
    #: 0x85) and token bytes
    TERMINATOR_PIECES = [
        b"a", b"bc", b" ", b"\t", b"\n", b"\r", b"\r\n", b"\n\r", b"\r\r\n",
        b"\x00", b"\xff", b"\x0b", b"\x0c", b"\x1c", b"\x85",
    ]
    terminator_text = st.lists(st.sampled_from(TERMINATOR_PIECES), max_size=24).map(
        b"".join
    )

    def queries_over(tokens):
        """Random queries whose terms draw their tokens from ``tokens``."""
        return st.lists(
            st.lists(
                st.tuples(
                    tokens,
                    st.booleans(),  # negative
                    st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
                ),
                min_size=1,
                max_size=3,
                unique_by=lambda t: t[0],
            ).map(
                lambda terms: IntersectionSet(
                    terms=tuple(
                        Term(token=token, negative=neg, column=col)
                        for token, neg, col in terms
                    )
                )
            ),
            min_size=1,
            max_size=2,
        ).map(lambda isets: Query(intersections=tuple(isets)))

    query_strategy = queries_over(st.sampled_from(VOCAB))

    # tokens near the 8-byte word key: lengths 1-17 over a small alphabet
    # with NUL and high bytes, many behind a shared 8-byte prefix, so page
    # and query tokens collide in their key, their length, or both
    word_token = st.builds(
        lambda prefix, rest: (prefix + rest)[:17],
        st.sampled_from([b"", b"", b"abcdefgh", b"\x00" * 8, b"\xff\x80\x00abcde"]),
        st.lists(
            st.sampled_from([b"a", b"b", b"\x00", b"\x80", b"\xff"]), min_size=0, max_size=17
        ).map(b"".join),
    ).filter(bool)

    @needs_numpy
    class TestHypothesisDifferential:
        @settings(max_examples=150, deadline=None)
        @given(payload=any_page)
        def test_tokenizer_differential(self, payload):
            _assert_tokenization_matches(payload)

        @settings(max_examples=300, deadline=None)
        @given(
            text=terminator_text,
            cr_at=st.sampled_from(["none", "first", "last"]),
            pages=st.lists(terminator_text.map(lambda page: page + b"\r"), max_size=4),
        )
        def test_tokenizer_splits_every_terminator(self, text, cr_at, pages):
            """``\\r``, ``\\n`` and ``\\r\\n`` lines, a ``\\r`` first or last
            in the buffer, and runs of pages that end in ``\\r``: the offset
            arrays are the reference tokenizer's. In a run, the ``\\n``
            :func:`_run_text` appends after a page's ``\\r`` ends no line of
            its own, so the run's lines are its pages' lines in turn."""
            payload = {"none": text, "first": b"\r" + text, "last": text + b"\r"}[cr_at]
            _assert_tokenization_matches(payload)
            run = _run_text([payload] + pages)
            _assert_tokenization_matches(run)
            want = [line for page in [payload] + pages for line in page.splitlines()]
            assert tokenize_page_offsets(run).to_token_lists()[0] == want

        @settings(max_examples=100, deadline=None)
        @given(
            payload=any_page,
            queries=st.lists(query_strategy, min_size=1, max_size=3),
            seed=st.integers(min_value=0, max_value=3),
        )
        def test_filter_differential(self, payload, queries, seed):
            from repro.errors import CapacityError, PlacementError

            try:
                program = compile_queries(tuple(queries), seed=seed)
            except (PlacementError, CapacityError):
                # some random programs legitimately exceed the hardware
                # provisioning; the system runs those in software, where
                # test_softmatch_differential covers the vectorized path
                assume(False)
            page = tokenize_page_offsets(payload)
            fast_filter = HashFilter(program)
            fast = _rows(fast_filter.evaluate_token_arrays(page))
            raw_lines, token_lists = tokenize_page(payload)
            slow_filter = HashFilter(program)
            slow = slow_filter.evaluate_token_lists(token_lists)
            assert fast == slow
            assert fast_filter.lines_processed == slow_filter.lines_processed
            assert fast_filter.tokens_processed == slow_filter.tokens_processed
            # and both agree with the per-line query oracles
            for tokens, verdict in zip(token_lists, slow):
                assert verdict == tuple(q.matches_tokens(tokens) for q in queries)

        @settings(max_examples=60, deadline=None)
        @given(
            data=st.data(),
            vocab=st.lists(word_token, min_size=1, max_size=24, unique=True),
            num_queries=st.sampled_from([1, 16]),
            terminated=st.booleans(),
        )
        def test_word_key_differential(self, data, vocab, num_queries, terminated):
            """1- and 16-query programs over word-boundary tokens, both
            routes through the whole partition kernel, against the
            reference kernel. Pages mix the programs' tokens with fresh
            ones and may end without a newline."""
            from repro.errors import CapacityError, PlacementError

            line = st.lists(st.one_of(st.sampled_from(vocab), word_token), max_size=8)
            page = st.lists(line.map(b" ".join), min_size=1, max_size=12).map(
                lambda lines: b"\n".join(lines) + (b"\n" if terminated else b"")
            )
            pages = data.draw(st.lists(page, min_size=1, max_size=3))
            queries = tuple(
                data.draw(
                    st.lists(
                        queries_over(st.sampled_from(vocab)),
                        min_size=num_queries,
                        max_size=num_queries,
                    )
                )
            )
            _assert_kernels_agree(queries, False, pages)
            try:
                compile_queries(queries, seed=0)
            except (PlacementError, CapacityError):
                return  # the system runs such a program in software: done above
            _assert_kernels_agree(queries, True, pages)

        @settings(max_examples=60, deadline=None)
        @given(
            data=st.data(),
            present=st.lists(word_token, min_size=1, max_size=8, unique=True),
            absent=st.lists(word_token, min_size=1, max_size=8, unique=True),
            num_queries=st.sampled_from([1, 4, 16]),
        )
        def test_unreachable_sets_differential(self, data, present, absent, num_queries):
            """Programs drawn so most sets are unreachable: pages hold only
            ``present`` tokens, and most sets also need one ``absent`` token
            (which may share a present token's key). Negative-only and
            contradictory sets, columns and need-0 vetoes all occur. Both
            routes through the whole partition kernel, against the
            reference kernel."""
            from repro.errors import CapacityError, PlacementError

            absent = [token for token in absent if token not in present]
            assume(absent)
            line = st.lists(st.sampled_from(present), max_size=6).map(b" ".join)
            page = st.lists(line, min_size=1, max_size=10).map(
                lambda lines: b"\n".join(lines) + b"\n"
            )
            pages = data.draw(st.lists(page, min_size=1, max_size=3))
            term = st.tuples(
                st.sampled_from(present),
                st.booleans(),  # negative
                st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
            )
            needs_absent = st.sampled_from(absent).map(lambda token: [(token, False, None)])
            missing = st.one_of(needs_absent, needs_absent, needs_absent, st.just([]))
            iset = st.builds(
                lambda terms, more: terms + more, st.lists(term, max_size=3), missing
            ).filter(bool).map(
                lambda terms: IntersectionSet(
                    terms=tuple(Term(token=t, negative=n, column=c) for t, n, c in terms)
                )
            )
            query = st.lists(iset, min_size=1, max_size=2).map(
                lambda isets: Query(intersections=tuple(isets))
            )
            queries = tuple(
                data.draw(st.lists(query, min_size=num_queries, max_size=num_queries))
            )
            _assert_kernels_agree(queries, False, pages)
            try:
                compile_queries(queries, seed=0)
            except (PlacementError, CapacityError):
                return
            _assert_kernels_agree(queries, True, pages)

        @settings(max_examples=100, deadline=None)
        @given(
            payload=any_page,
            queries=st.lists(query_strategy, min_size=1, max_size=4),
        )
        def test_softmatch_differential(self, payload, queries):
            """Software-fallback batch matcher vs per-line query oracle.

            No compilation involved, so *every* random program is in
            scope — including ones that exceed hardware provisioning,
            which is precisely when the system routes through softmatch.
            """
            page = tokenize_page_offsets(payload)
            fast = _rows(SoftwareBatchMatcher(tuple(queries)).evaluate(page))
            _, token_lists = tokenize_page(payload)
            slow = [
                tuple(q.matches_tokens(tokens) for q in queries)
                for tokens in token_lists
            ]
            assert fast == slow

        @settings(max_examples=75, deadline=None)
        @given(
            payload=any_page,
            word_bytes=st.sampled_from([8, 16, 32]),
            realign=st.booleans(),
        )
        def test_decoder_differential(self, payload, word_bytes, realign):
            codec = LZAHCompressor(
                LZAHParams(word_bytes=word_bytes, newline_realign=realign)
            )
            blob = codec.compress(payload)
            assert codec.decompress_into(blob) == _spec_decode(codec, blob) == payload
            if numpy_or_none() is not None:
                assert codec._bulk_decode([blob]).tobytes() == payload

        @settings(max_examples=60, deadline=None)
        @given(
            payload=structured_page.filter(bool),
            flip_at=st.integers(min_value=0, max_value=10_000),
            flip_bits=st.integers(min_value=1, max_value=255),
        )
        def test_decoder_corruption_differential(self, payload, flip_at, flip_bits):
            """The bulk decoder agrees with the specification on
            corrupted streams too: both raise the same
            CompressedFormatError message or both return the same bytes
            (a flip in chunk padding can be semantically invisible)."""
            codec = LZAHCompressor()
            blob = bytearray(codec.compress(payload))
            blob[flip_at % len(blob)] ^= flip_bits
            outcomes = _decoder_outcomes(codec, bytes(blob))
            assert outcomes[0] == outcomes[1]

        @settings(max_examples=30, deadline=None)
        @given(pages=st.lists(any_page, min_size=1, max_size=4))
        def test_partition_kernel_software_differential(self, pages):
            """Whole-partition equivalence for a *software-fallback*
            program (``offloaded=False``): the vectorized kernel routes
            through SoftwareBatchMatcher instead of the cuckoo table."""
            queries = (
                Query(
                    intersections=(
                        IntersectionSet(terms=(Term(token=b"session"),)),
                        IntersectionSet(
                            terms=(Term(token=b"ERR", column=2),)
                        ),
                    )
                ),
                Query(
                    intersections=(
                        IntersectionSet(
                            terms=(
                                Term(token=b"opened"),
                                Term(token=b"root", negative=True),
                            )
                        ),
                    )
                ),
            )
            _assert_kernels_agree(queries, False, pages)

        @settings(max_examples=40, deadline=None)
        @given(pages=st.lists(any_page, min_size=1, max_size=4))
        def test_partition_kernel_differential(self, pages):
            """Whole-partition equivalence on arbitrary bytes: output,
            per-query counts, and deterministic stage units match across
            kernels, ``\\r`` pages included."""
            _assert_kernels_agree(FILTER_QUERIES[::2], True, pages)


# ---------------------------------------------------------------------------
# kernel selection
# ---------------------------------------------------------------------------


class TestBackendSelection:
    def test_fallback_always_available(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_NUMPY", False)
        assert resolve_kernel("reference") == "reference"
        assert resolve_backend("reference") == "fallback"

    def test_auto_prefers_numpy_when_available(self):
        if numpy_or_none() is not None:
            assert resolve_kernel(None) == resolve_kernel("auto") == "vectorized"
            assert resolve_backend(None) == "numpy"
        else:
            assert resolve_kernel(None) == "reference"
            assert resolve_backend(None) == "fallback"

    def test_explicit_numpy_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_NUMPY", False)
        assert resolve_kernel(None) == resolve_kernel("auto") == "reference"
        with pytest.raises(BackendUnavailableError):
            resolve_kernel("vectorized")
        with pytest.raises(BackendUnavailableError):
            tokenize_page_offsets(b"one line\n")

    def test_kernel_names_are_checked(self):
        assert resolve_kernel(" Reference ") == "reference"
        assert resolve_kernel("") == resolve_kernel(None) == resolve_kernel("auto")
        with pytest.raises(ValueError):
            resolve_kernel("bogus")

    @pytest.mark.parametrize(
        "kernel", [None, pytest.param("vectorized", marks=needs_numpy)]
    )
    def test_force_each_backend_end_to_end(self, kernel):
        """The kernel the system picks by itself, and the numpy kernel
        force-selected, produce the reference kernel's scan results on a
        small end-to-end system."""
        from repro.core.query import parse_query
        from repro.datasets.synthetic import generator_for
        from repro.system.mithrilog import MithriLogSystem

        corpus = list(generator_for("Liberty2", seed=3).iter_lines(600))
        query = parse_query("session AND opened")
        system = MithriLogSystem(seed=3, cache_pages=0, scan_kernel=kernel)
        system.ingest(corpus)
        outcome = system.scan_all(query)
        system.close()
        oracle = MithriLogSystem(seed=3, cache_pages=0, scan_kernel="reference")
        oracle.ingest(corpus)
        expected = oracle.scan_all(query)
        oracle.close()
        assert outcome.matched_lines == expected.matched_lines
        assert outcome.per_query_counts == expected.per_query_counts
        assert outcome.stats.profile == expected.stats.profile

    def test_scan_without_numpy_matches_grep(self, monkeypatch):
        """Force the numpy probe to 'absent': auto-resolution must route
        the whole scan through the reference kernel (the offset-array
        tokenizer would raise) and still agree with the grep oracle."""
        from repro.baselines.grep import grep_indices
        from repro.core.query import parse_query
        from repro.datasets.synthetic import generator_for
        from repro.system.mithrilog import MithriLogSystem

        monkeypatch.setattr(backend_mod, "_NUMPY", False)
        corpus = list(generator_for("Liberty2", seed=3).iter_lines(600))
        queries = [parse_query("session AND opened"), parse_query("root OR admin")]
        system = MithriLogSystem(seed=3, cache_pages=0)
        system.ingest(corpus)
        outcome = system.scan_all(*queries)
        system.close()
        expected = [grep_indices(q, corpus) for q in queries]
        assert list(outcome.per_query_counts) == [len(hits) for hits in expected]
        assert outcome.matched_lines == [
            corpus[i] for i in sorted(set().union(*expected))
        ]
