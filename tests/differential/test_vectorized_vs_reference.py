"""Differential harness: vectorized scan path vs the reference kernels.

The reference kernel is the oracle; the numpy path (offset-array
tokenizer, arena decoder, signature-prefiltered filter kernel) must be
byte-for-byte equivalent to it on *arbitrary* inputs. Three layers of
evidence:

1. **Hypothesis** — randomized pages (structured log lines, multibyte
   UTF-8, raw binary including ``\\r``/NUL/empty-token shapes), codecs
   with randomized parameters, and randomized query programs.
2. **Replayable corpus** — ``corpus_cases.json`` pins every edge case
   worth keeping forever; new divergences found by randomization get
   appended there so they replay on every run without hypothesis.
3. **End-to-end invariance** — full scans must produce identical
   matches, per-query counts, and *simulated* stats (breakdown,
   bottleneck, profile) across kernel × workers.

The numpy tokenizer splits lines on ``\\n`` only, so the partition kernel
routes a page containing ``\\r`` to the reference stages; the stage-level
checks below follow the same rule and the whole-kernel checks prove the
routing itself. Kernel selection lives here too: the suite proves that
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

from repro.compression.arena import DecodeArena
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
from repro.core.vectokenizer import has_carriage_return, tokenize_page_offsets
from repro.errors import CompressedFormatError
from repro.exec.executor import ScanExecutor, ScanProgramSpec, _partition_kernel
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


def _offsets_or_refusal(payload: bytes):
    """Offset arrays of a page the numpy tokenizer accepts, else ``None``.

    A page containing ``\\r`` must be flagged by the probe the kernel
    routes by and refused by the tokenizer (never mis-split).
    """
    if b"\r" in payload:
        assert has_carriage_return(payload)
        with pytest.raises(ValueError):
            tokenize_page_offsets(payload)
        return None
    assert not has_carriage_return(payload)
    return tokenize_page_offsets(payload)


def _assert_tokenization_matches(payload: bytes) -> None:
    """One page: offset arrays must re-materialise the reference output."""
    page = _offsets_or_refusal(payload)
    if page is None:
        return
    raw_lines, token_lists = page.to_token_lists()
    want_lines, want_tokens = tokenize_page(payload)
    assert raw_lines == want_lines
    assert token_lists == want_tokens
    # the offsets themselves must be consistent, not just the bytes
    assert page.num_lines == len(want_lines)
    assert page.num_tokens == sum(len(t) for t in want_tokens)
    for j in range(page.num_tokens):
        start, end = int(page.token_starts[j]), int(page.token_ends[j])
        line = int(page.token_lines[j])
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
        page = _offsets_or_refusal(payload)
        if page is None:
            return
        program = compile_queries(FILTER_QUERIES, seed=0)
        fast = HashFilter(program).evaluate_token_arrays(page)
        _, token_lists = tokenize_page(payload)
        slow = HashFilter(program).evaluate_token_lists(token_lists)
        assert fast == slow

    @needs_numpy
    @pytest.mark.parametrize("payload", CORPUS_PAGES, ids=CORPUS_IDS)
    def test_softmatch_matches_query_oracle(self, payload):
        """The software-fallback batch matcher (no compiled table) agrees
        with per-line ``Query.matches_tokens`` on every pinned page."""
        _assert_kernels_agree(SOFT_QUERIES, False, [payload])
        page = _offsets_or_refusal(payload)
        if page is None:
            return
        fast = SoftwareBatchMatcher(SOFT_QUERIES).evaluate(page)
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
        arena = DecodeArena(initial_bytes=1)
        assert bytes(codec.decompress_into(blob, arena)) == codec.decompress(blob)
        assert codec.decompress(blob) == payload


# ---------------------------------------------------------------------------
# \r routing: mixed partitions through the executor
# ---------------------------------------------------------------------------


@needs_numpy
class TestCarriageReturnRouting:
    """A page with ``\\r`` takes the reference stages for that page only;
    its ``\\n``-only neighbours stay on the numpy stages, and nothing
    observable depends on the kernel or the worker count."""

    PAGES = [
        b"session opened for root\nsvc up ERR\nnoise line\n" * 20,
        b"session opened\r\nadmin opened\rsvc x ERR\r\n\rsession closed\n" * 15,
        b"svc a ERR b\nopened by admin\nsession session\n" * 20,
        b"lone\rcarriage\rreturns session\r",
    ]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "queries, offloaded",
        [(FILTER_QUERIES, True), (SOFT_QUERIES, False)],
        ids=["offloaded", "software"],
    )
    def test_mixed_partition_matches_reference(self, queries, offloaded, workers):
        codec = LZAHCompressor()
        items = [(False, codec.compress(page)) for page in self.PAGES]
        with ScanExecutor(workers) as executor:
            ref, vec = (
                executor.scan(_spec(queries, offloaded, kernel), items)
                for kernel in ("reference", "vectorized")
            )
        assert ref.lines_kept > 0
        assert ref.lines_seen == sum(len(p.splitlines()) for p in self.PAGES)
        assert vec.data == ref.data
        assert vec.per_query_counts == ref.per_query_counts
        assert vec.lines_seen == ref.lines_seen
        assert [_stage_counts(p.stages) for p in vec.partitions] == [
            _stage_counts(p.stages) for p in ref.partitions
        ]
        assert _stage_counts(vec.profile) == _stage_counts(ref.profile)


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

    query_strategy = st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(VOCAB),
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

    @needs_numpy
    class TestHypothesisDifferential:
        @settings(max_examples=150, deadline=None)
        @given(payload=any_page)
        def test_tokenizer_differential(self, payload):
            _assert_tokenization_matches(payload)

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
            page = _offsets_or_refusal(payload)
            # a \r page never reaches the array kernel: the partition
            # -kernel differentials below cover its routing
            assume(page is not None)
            fast_filter = HashFilter(program)
            fast = fast_filter.evaluate_token_arrays(page)
            raw_lines, token_lists = tokenize_page(payload)
            slow_filter = HashFilter(program)
            slow = slow_filter.evaluate_token_lists(token_lists)
            assert fast == slow
            assert fast_filter.lines_processed == slow_filter.lines_processed
            assert fast_filter.tokens_processed == slow_filter.tokens_processed
            # and both agree with the per-line query oracles
            for tokens, verdict in zip(token_lists, slow):
                assert verdict == tuple(q.matches_tokens(tokens) for q in queries)

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
            page = _offsets_or_refusal(payload)
            assume(page is not None)
            fast = SoftwareBatchMatcher(tuple(queries)).evaluate(page)
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
            arena = DecodeArena(initial_bytes=1)
            via_arena = bytes(codec.decompress_into(blob, arena))
            via_fast = codec.decompress(blob)
            via_words = b"".join(c for c, _p in codec.decompress_words(blob))
            assert via_arena == via_fast == via_words == payload

        @settings(max_examples=60, deadline=None)
        @given(
            payload=structured_page.filter(bool),
            flip_at=st.integers(min_value=0, max_value=10_000),
            flip_bits=st.integers(min_value=1, max_value=255),
        )
        def test_decoder_corruption_differential(self, payload, flip_at, flip_bits):
            """All three decoders agree on corrupted streams too: either
            all raise CompressedFormatError or all return the same bytes
            (a flip in chunk padding can be semantically invisible)."""
            codec = LZAHCompressor()
            blob = bytearray(codec.compress(payload))
            blob[flip_at % len(blob)] ^= flip_bits
            blob = bytes(blob)
            outcomes = []
            for decode in (
                codec.decompress,
                lambda b: bytes(codec.decompress_into(b, DecodeArena())),
                lambda b: b"".join(c for c, _p in codec.decompress_words(b)),
            ):
                try:
                    outcomes.append(("ok", decode(blob)))
                except CompressedFormatError:
                    outcomes.append(("error", None))
            assert outcomes[0] == outcomes[1] == outcomes[2]

        @settings(max_examples=30, deadline=None)
        @given(pages=st.lists(any_page, min_size=1, max_size=4))
        def test_partition_kernel_software_differential(self, pages):
            """Whole-partition equivalence for a *software-fallback*
            program (``offloaded=False``): the vectorized kernel routes
            through SoftwareBatchMatcher instead of the cuckoo table, and
            pages carrying ``\\r`` through the reference stages."""
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
            kernels, whichever pages take the ``\\r`` route."""
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

    def test_env_var_selects_kernel(self, monkeypatch):
        monkeypatch.setenv(backend_mod.KERNEL_ENV, "reference")
        assert resolve_kernel(None) == "reference"
        monkeypatch.setenv(backend_mod.KERNEL_ENV, "auto")
        assert resolve_kernel(None) == resolve_kernel("auto")
        monkeypatch.setenv(backend_mod.KERNEL_ENV, "bogus")
        with pytest.raises(ValueError):
            resolve_kernel(None)

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
