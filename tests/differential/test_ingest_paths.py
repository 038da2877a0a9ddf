"""Differential tests for the bulk ingest path.

Ingest reads every byte once with bulk primitives: page tokens from one
translate + split over the stored page text, one index insert per page,
and a numpy form of the cycle model. Each has a slow, obviously-right
counterpart, and these tests hold them to it exactly:

- :func:`page_token_set` against the union of :func:`tokenize_page`'s
  token lists (what the scan paths see of the same page);
- :meth:`HashIndexTable.insert_page` against the per-token insert it
  replaced (kept here verbatim), down to row creation order and the
  bytes of the leaf/root pools;
- the array-form cycle model against the scalar loops, which are also
  what runs when numpy is missing;
- one whole ingest with numpy and with numpy masked.

Nothing here needs numpy to *run*: without it both sides of the last two
groups take the scalar path and the comparisons hold trivially, so the
no-numpy CI leg still exercises the page-token and insert differentials.
"""

import hashlib
import random
import tracemalloc

import pytest

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

from repro.core import backend as backend_mod
from repro.core.backend import numpy_or_none
from repro.core.tokenizer import page_token_set, tokenize_page
from repro.datasets.synthetic import generator_for
from repro.hw import perf as perf_mod
from repro.hw.perf import PipelineCycleModel, measure_tokenized_stats
from repro.index.hashindex import HashIndexTable
from repro.index.storetree import TreeListStore
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.params import PAGE_BYTES, IndexParams, PipelineParams, StorageParams
from repro.storage.flash import FlashArray
from repro.system.mithrilog import MithriLogSystem

needs_numpy = pytest.mark.skipif(
    numpy_or_none() is None, reason="the array form needs numpy"
)


# ---------------------------------------------------------------------------
# page tokens
# ---------------------------------------------------------------------------


def _scan_side_tokens(payload: bytes) -> set[bytes]:
    _lines, token_lists = tokenize_page(payload)
    return {token for tokens in token_lists for token in tokens}


PAGE_CASES = [
    b"",
    b"\n",
    b"alpha beta\nfoo\tbar  baz\n",
    b"foo\nbar baz\n",
    b"foo\rbar\r\nbaz\n\rqux",
    b" \t \n\t\n",
    b"unterminated tail",
    # bytes str.splitlines() would cut at, bytes.splitlines() does not
    b"a\x0bb\x0cc\x1cd\x1de\x1ef\x85g\n",
    b"nul\x00inside \xff\xfe high\n",
]


class TestPageTokenSet:
    @pytest.mark.parametrize("payload", PAGE_CASES)
    def test_equals_the_scan_side_tokens(self, payload):
        assert page_token_set(payload) == _scan_side_tokens(payload)

    def test_no_empty_token(self):
        assert page_token_set(b"  \n\n a  b \r\n") == {b"a", b"b"}

    if HAVE_HYPOTHESIS:

        @settings(max_examples=300, deadline=None)
        @given(
            payload=st.one_of(
                st.binary(max_size=512),
                st.lists(
                    st.sampled_from(
                        [b"a", b"bc", b" ", b"\t", b"\n", b"\r", b"\r\n", b"\x00"]
                    ),
                    max_size=60,
                ).map(b"".join),
            )
        )
        def test_equals_the_scan_side_tokens_on_arbitrary_bytes(self, payload):
            assert page_token_set(payload) == _scan_side_tokens(payload)


# ---------------------------------------------------------------------------
# per-page index insert
# ---------------------------------------------------------------------------


def _insert_per_token(table, token, page_addr, store):
    """The per-token insert that ``insert_page`` replaced, as it was."""

    def hashed(which):
        digest = hashlib.blake2b(
            token,
            digest_size=8,
            salt=(0x10 + which).to_bytes(8, "little"),
            key=table.seed.to_bytes(8, "little"),
        ).digest()
        return int.from_bytes(digest, "little") & (table.params.hash_rows - 1)

    candidates = tuple(hashed(w) for w in range(table.params.num_hash_functions))
    row = table.row(min(candidates, key=lambda r: table.row(r).total_pages))
    if row.buffer and row.buffer[-1] == page_addr:
        return
    row.buffer.append(page_addr)
    row.total_pages += 1
    if len(row.buffer) == table.params.memory_buffer_addrs:
        table._spill_buffer(row, store)


def _table_and_store(params, seed):
    flash = FlashArray(StorageParams(capacity_pages=8192))
    return HashIndexTable(params, seed=seed), TreeListStore(flash, PAGE_BYTES), flash


def _rows(table):
    """Every row, in table order (which is flush order), as plain values
    so that a mismatch prints rows rather than hex."""
    return [
        (row_id, row.buffer, list(row.partial_root), row.head_root, row.total_pages)
        for row_id, row in table._rows.items()
    ]


def _everything(table, store, flash):
    """All an insert can change; row order matters (it is flush order)."""
    return (
        _rows(table),
        table.rows_in_use,
        table.memory_footprint_bytes(),
        store.leaves.to_state(),
        store.roots.to_state(),
        store.memory_footprint_bytes,
        [(addr, flash.read_page(addr).data) for addr in range(flash.pages_written)],
    )


class TestInsertPage:
    @pytest.mark.parametrize("buffer_addrs", [4, 16, 40])
    @pytest.mark.parametrize("hash_functions", [1, 2])
    def test_matches_the_per_token_insert(self, hash_functions, buffer_addrs):
        # 32 rows under ~60 tokens: shared rows, ties, both candidates
        # equal, duplicate-page skips, leaf spills and persisted roots
        params = IndexParams(
            hash_rows=32,
            num_hash_functions=hash_functions,
            memory_buffer_addrs=buffer_addrs,
        )
        rng = random.Random(hash_functions * 100 + buffer_addrs)
        vocab = [f"tok{i}".encode() for i in range(60)] + [b"", b"\x00", b"x" * 300]
        pages = [
            rng.sample(vocab, rng.randrange(0, 25)) for _ in range(700)
        ]
        bulk = _table_and_store(params, seed=7)
        reference = _table_and_store(params, seed=7)
        for addr, tokens in enumerate(pages):
            # a list with repeats, in arbitrary order: insert_page owns
            # the sort and the dedup
            bulk[0].insert_page(tokens + tokens[:3], 1000 + addr, bulk[1])
            for token in sorted(set(tokens)):
                _insert_per_token(reference[0], token, 1000 + addr, reference[1])
        assert bulk[1].roots.nodes_written > 0  # the workload reached a root
        assert _everything(*bulk) == _everything(*reference)
        bulk[0].flush_all(bulk[1])
        reference[0].flush_all(reference[1])
        assert _everything(*bulk) == _everything(*reference)

    def test_insert_is_a_one_token_page(self):
        one, many = _table_and_store(None, 3), _table_and_store(None, 3)
        for addr in range(40):
            for token in (b"a", b"b", b"c"):
                one[0].insert(token, addr, one[1])
            many[0].insert_page({b"a", b"b", b"c"}, addr, many[1])
        assert _everything(*one) == _everything(*many)

    def test_candidate_rows_are_the_rows_inserts_use(self):
        table, store, _flash = _table_and_store(None, 11)
        table.insert_page([b"kernel"], 5, store)
        rows = table.candidate_rows(b"kernel")
        assert len(rows) == 2
        assert [r for r in rows if table.peek_row(r).buffer == [5]] == [rows[0]]
        assert table.choose_insert_row(b"kernel") == rows[1]  # now the lighter


# ---------------------------------------------------------------------------
# array-form cycle model
# ---------------------------------------------------------------------------

PARAM_CASES = [
    PipelineParams(),
    PipelineParams(datapath_bytes=8),
    PipelineParams(datapath_bytes=32, tokenizers=16),
    PipelineParams(tokenizers=8, hash_filters=3),  # two lanes feed no filter
    PipelineParams(tokenizers=9, hash_filters=2),
]

LINE_CASES = [
    [b""],
    [b" ", b"\t\t", b" \t "],  # delimiter-only lines still emit one word
    [b"a" * 16, b"b" * 17, b"c" * 32, b"d" * 33, b"e" * 48],
    [b"x" * 16 + b" " + b"y" * 17 + b"\t" + b"z" * 33],
    [b"tab\tseparated\tfields", b" leading and trailing "],
    [b"nul\x00byte", b"\xff\xfe high", b"carriage\rreturn stays a token byte"],
    [b"line %d of eleven" % i for i in range(11)],  # 11 % 8 != 0
    [b"short", b"a much longer line with many more tokens in it " * 3] * 9,
]


def _model_outputs(lines, params):
    """Cycle count, tokenized stats and the three metric families."""
    with use_registry(MetricsRegistry()) as registry:
        count = PipelineCycleModel(params).count_cycles(lines)
        stats = measure_tokenized_stats(lines, datapath_bytes=params.datapath_bytes)
        families = {
            name: registry.get(name).value() if name in registry else None
            for name in (
                "mithrilog_pipeline_cycles_total",
                "mithrilog_pipeline_useful_bits_ratio",
                "mithrilog_pipeline_padding_amplification",
            )
        }
    return count, stats, families


def _assert_array_form_matches_scalar(lines, params, monkeypatch):
    bulk = _model_outputs(lines, params)
    with monkeypatch.context() as patch:
        patch.setattr(backend_mod, "_NUMPY", False)
        assert perf_mod._line_shapes(lines, params.datapath_bytes) is None
        scalar = _model_outputs(lines, params)
    assert bulk == scalar


class TestArrayFormCycleModel:
    @pytest.mark.parametrize("params", PARAM_CASES)
    @pytest.mark.parametrize("lines", LINE_CASES)
    def test_matches_the_scalar_loops(self, lines, params, monkeypatch):
        if numpy_or_none() is not None:
            assert perf_mod._line_shapes(lines, params.datapath_bytes) is not None
        _assert_array_form_matches_scalar(lines, params, monkeypatch)

    @pytest.mark.parametrize("block_lines", [1, 3, 512])
    def test_block_size_does_not_matter(self, block_lines, monkeypatch):
        monkeypatch.setattr(perf_mod, "_BLOCK_LINES", block_lines)
        lines = [line for case in LINE_CASES for line in case]
        _assert_array_form_matches_scalar(lines, PipelineParams(), monkeypatch)

    @pytest.mark.parametrize(
        "lines",
        [[b"foo\nbar baz"], [b"trailing\n", b"plain"], [b"ok"] * 600 + [b"\n"]],
    )
    def test_a_line_carrying_a_newline_takes_the_scalar_loops(
        self, lines, monkeypatch
    ):
        assert perf_mod._line_shapes(lines, 16) is None
        _assert_array_form_matches_scalar(lines, PipelineParams(), monkeypatch)

    def test_empty_sample(self, monkeypatch):
        assert perf_mod._line_shapes([], 16) is None
        _assert_array_form_matches_scalar([], PipelineParams(), monkeypatch)

    def test_an_iterator_of_lines_is_measured_once_through(self):
        lines = [b"alpha beta", b"", b"gamma"]
        assert measure_tokenized_stats(iter(lines)) == measure_tokenized_stats(lines)

    @needs_numpy
    @pytest.mark.parametrize("dataset", ["Liberty2", "BGL2"])
    def test_transient_arrays_stay_small_whatever_the_sample(self, dataset):
        """What the blocks are for. Past a few hundred KB of temporaries
        a call grows the heap, has it trimmed and faults it back in, every
        time (512-line blocks: ~650 KB here, ~100 minor faults a call)."""
        if tracemalloc.is_tracing():
            pytest.skip("something else is tracing allocations")
        lines = generator_for(dataset, seed=3).generate(2000)
        perf_mod._line_shapes(lines, 16)  # numpy's own first-call set-up
        tracemalloc.start()
        try:
            assert perf_mod._line_shapes(lines, 16) is not None
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 203-220 KB at 128 lines a block; 342-374 KB at 256, which
        # already faults inside the benchmark's process
        assert peak < 256 * 1024

    if HAVE_HYPOTHESIS:

        @settings(max_examples=200, deadline=None)
        @given(
            lines=st.lists(
                st.one_of(
                    st.binary(max_size=80),
                    st.lists(
                        st.sampled_from(
                            [b" ", b"\t", b"a", b"bc", b"\r", b"\x00", b"\xff",
                             b"x" * 16, b"y" * 17, b"z" * 33, b"q" * 48]
                        ),
                        max_size=10,
                    ).map(b"".join),
                ),
                max_size=40,
            ),
            params=st.sampled_from(PARAM_CASES),
            block_lines=st.sampled_from([1, 7, 512]),
        )
        def test_matches_the_scalar_loops_on_arbitrary_lines(
            self, lines, params, block_lines
        ):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(perf_mod, "_BLOCK_LINES", block_lines)
                _assert_array_form_matches_scalar(lines, params, patch)


# ---------------------------------------------------------------------------
# whole ingest
# ---------------------------------------------------------------------------


def _ingest_everything(batches):
    with use_registry(MetricsRegistry()):
        system = MithriLogSystem(seed=5)
        reports, rates = [], []
        for batch in batches:
            reports.append(system.ingest(batch))
            rates.append(
                (system.accelerator_rate, system._pipeline_rate,
                 system._decompressor_rate)
            )
        flash = system.device.flash
        observed = (
            reports,
            rates,
            [(addr, flash.read_page(addr).data) for addr in range(flash.pages_written)],
            _rows(system.index.table),
            system.index.store.leaves.to_state(),
            system.index.store.roots.to_state(),
            system.index.data_pages,
            (system.original_bytes, system.total_lines),
        )
        system.close()
    return observed


@needs_numpy
def test_whole_ingest_is_the_same_with_numpy_masked(monkeypatch):
    liberty = generator_for("Liberty2", seed=5).generate(1800)
    bgl = generator_for("BGL2", seed=5).generate(1800)
    # alternating small batches (the streaming shape) and one odd batch
    # that sends its cycle-model sample down the scalar loops
    batches = [
        (bgl if i % 2 else liberty)[i // 2 * 450 : (i // 2 + 1) * 450]
        for i in range(8)
    ] + [[b"alpha beta", b"foo\nbar baz", b"tail\r"]]
    with_numpy = _ingest_everything(batches)
    monkeypatch.setattr(backend_mod, "_NUMPY", False)
    without = _ingest_everything(batches)
    assert with_numpy == without
