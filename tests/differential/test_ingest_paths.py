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
- the table's running word count against the walk over every row;
- the array-form cycle model against the scalar loops, which are also
  what runs when numpy is missing;
- one whole ingest with numpy and with numpy masked;
- every ``IngestReport``'s index footprint against the walk, on every
  route into ``MithriLogSystem.ingest``;
- a re-split page cut from the encode already done against encoding the
  half again (:meth:`LZAHCompressor.cut`, and ``_pack_pages`` against
  the re-encoding loop it replaced, kept here verbatim).

A last test guards the cost without a clock: no ingest walks the table,
and each page written costs one ``compress``.

Nothing here needs numpy to *run*: without it both sides of the cycle
model and whole-ingest groups take the scalar path and the comparisons
hold trivially, so the no-numpy CI leg still exercises the rest.
"""

import collections
import functools
import hashlib
import itertools
import json
import random
import tracemalloc

import pytest

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

from repro.compression.lzah import LZAHCompressor
from repro.core import backend as backend_mod
from repro.core.backend import numpy_or_none
from repro.core.tokenizer import page_token_set, tokenize_page
from repro.datasets.synthetic import generator_for
from repro.hw import perf as perf_mod
from repro.hw.perf import PipelineCycleModel, measure_tokenized_stats
from repro.index.hashindex import HashIndexTable, RowState
from repro.index.storetree import TreeListStore
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.params import (
    PAGE_BYTES,
    IndexParams,
    LZAHParams,
    PipelineParams,
    StorageParams,
    SystemParams,
)
from repro.storage.flash import FlashArray
from repro.system.mithrilog import MithriLogSystem
from repro.system.persistence import load_store, save_store
from repro.system.streaming import StreamingIngestor
from repro.system.wal import JournaledMithriLog

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

    def row_of(row_id):  # ``HashIndexTable.row`` as it was: creates on read
        return table._rows.setdefault(row_id, RowState())

    candidates = tuple(hashed(w) for w in range(table.params.num_hash_functions))
    row = row_of(min(candidates, key=lambda r: row_of(r).total_pages))
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
        table.insert_page([b"kernel"], 6, store)  # the second is now lighter
        assert [table.peek_row(r).buffer for r in rows] == [[5], [6]]


# ---------------------------------------------------------------------------
# running word count
# ---------------------------------------------------------------------------

#: few tokens over a tiny table, so tokens share rows and rows fill
_COUNT_VOCAB = [b"t%d" % i for i in range(12)]
_COUNT_PARAMS = [
    IndexParams(hash_rows=8, num_hash_functions=hashes, memory_buffer_addrs=addrs)
    for hashes in (1, 2)
    for addrs in (4, 16, 40)
]


def _step(table, store, kind, tokens, addr):
    """Apply one step; a restore hands back the rebuilt table, which the
    steps after it continue on."""
    if kind == "page":
        table.insert_page(tokens, addr, store)
    elif kind == "insert":
        for token in tokens:
            table.insert(token, addr, store)
    elif kind == "flush":
        table.flush_all(store)
    else:
        table, image = HashIndexTable(table.params, table.seed), table.to_state()
        table.restore_state(json.loads(json.dumps(image)))
    return table


def _assert_count_is_the_walk(params, ops):
    """After every step, the running count is the walk, in u32 words.
    ``ops`` are ``(kind, tokens, same page)``: an insert on the same page
    as the one before repeats that page. Returns how many roots inserts
    filled (as opposed to flushes writing partial ones)."""
    table, store, _flash = _table_and_store(params, seed=3)
    addr = filled_roots = 0
    for kind, tokens, same_page in ops:
        addr += not same_page
        roots = store.roots.nodes_written
        table = _step(table, store, kind, tokens, addr)
        assert 4 * table.words == table.memory_footprint_bytes(), kind
        if kind != "flush":
            filled_roots += store.roots.nodes_written - roots
    return filled_roots


class TestRunningWordCount:
    @pytest.mark.parametrize(
        "params", _COUNT_PARAMS,
        ids=lambda p: f"h{p.num_hash_functions}-b{p.memory_buffer_addrs}",
    )
    def test_equals_the_walk_through_spills_roots_and_restores(self, params):
        rng = random.Random(params.memory_buffer_addrs * 10 + params.num_hash_functions)
        kinds = ["page"] * 400 + ["insert"] * 20 + ["flush", "restore", "restore"]
        ops = [
            (rng.choice(kinds), rng.sample(_COUNT_VOCAB, rng.randrange(13)),
             rng.random() < 0.2)
            for _ in range(3000)
        ]
        assert _assert_count_is_the_walk(params, ops) > 0  # rows filled roots

    if HAVE_HYPOTHESIS:

        @settings(max_examples=150, deadline=None)
        @given(
            params=st.sampled_from(_COUNT_PARAMS),
            ops=st.lists(
                st.tuples(
                    st.sampled_from(["page"] * 3 + ["insert", "flush", "restore"]),
                    st.lists(st.sampled_from(_COUNT_VOCAB), max_size=12),
                    st.booleans(),
                ),
                max_size=80,
            ),
        )
        def test_equals_the_walk_after_any_steps(self, params, ops):
            _assert_count_is_the_walk(params, ops)


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
                (system.accelerator_rate, system.pipeline_rate,
                 system.decompressor_rate)
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


# ---------------------------------------------------------------------------
# ingest reports
# ---------------------------------------------------------------------------

#: small tables with small buffers, so a few thousand lines spill leaves,
#: fill leaf pages and take snapshot flushes
_ROUTE_PARAMS = SystemParams(
    index=IndexParams(hash_rows=64, memory_buffer_addrs=4, snapshot_leaf_threshold=1)
)


@functools.lru_cache(maxsize=None)
def _corpus(dataset):
    return tuple(generator_for(dataset, seed=5).generate(1500))


def _record_ingests(monkeypatch, walk):
    """Wrap ``MithriLogSystem.ingest``: every report it returns, beside
    the table walk taken right after it when ``walk``."""
    seen = []
    ingest = MithriLogSystem.ingest

    def recorded(self, *args, **kwargs):
        report = ingest(self, *args, **kwargs)
        seen.append((report, self.index.memory_footprint_bytes() if walk else None))
        return report

    monkeypatch.setattr(MithriLogSystem, "ingest", recorded)
    return seen


def _drive_every_ingest_route(store_dir, batches, params, snapshot_every_s):
    """Send ``batches`` down each route to ``MithriLogSystem.ingest``:
    timestamped ingests (snapshot flushes inside the index), a journaled
    system across ``checkpoint`` and ``recover`` (whose replay ingests),
    an ingest after ``load_store``, and ``StreamingIngestor`` flushes with
    snapshots between them. Returns the last system."""
    clock = itertools.count()

    def stamps(batch):
        return [float(next(clock)) for _ in batch]

    half = len(batches) // 2
    journaled = JournaledMithriLog(store_dir / "journal", MithriLogSystem(params, seed=5))
    for batch in batches[:half]:
        journaled.ingest(batch, stamps(batch))
    journaled.checkpoint()
    for batch in batches[half:]:
        journaled.ingest(batch, stamps(batch))
    recovered = JournaledMithriLog.recover(store_dir / "journal", seed=5).system
    recovered.ingest(batches[0], stamps(batches[0]))
    save_store(recovered, store_dir / "saved")
    loaded = load_store(store_dir / "saved", seed=5)
    loaded.ingest(batches[-1])
    stream = StreamingIngestor(loaded, batch_lines=700, snapshot_every_s=snapshot_every_s)
    for batch in batches:
        stream.extend(batch, stamps(batch))
        stream.flush()
    return loaded


_MIXED_BATCHES = [
    _corpus("BGL2" if i % 2 else "Liberty2")[i // 2 * 500 : (i // 2 + 1) * 500]
    for i in range(6)
]


class TestIngestReportFootprint:
    def test_every_route_reports_the_walk(self, tmp_path, monkeypatch):
        seen = _record_ingests(monkeypatch, walk=True)
        system = _drive_every_ingest_route(tmp_path, _MIXED_BATCHES, _ROUTE_PARAMS, 300)
        # 6 journaled, 3 replayed, 1 after recovery, 1 after loading and
        # the stream's flushes, many of those past a snapshot flush
        assert len(seen) > 11 and system.index.snapshots.snapshots
        assert [report.index_memory_bytes for report, _ in seen] == [
            walk for _, walk in seen
        ]

    if HAVE_HYPOTHESIS:

        @settings(max_examples=8, deadline=None)
        @given(
            batches=st.lists(
                st.tuples(
                    st.sampled_from(["Liberty2", "BGL2"]),
                    st.integers(0, 1000),
                    st.integers(1, 500),
                ).map(lambda b: _corpus(b[0])[b[1] : b[1] + b[2]]),
                min_size=1,
                max_size=5,
            ),
            buffer_addrs=st.sampled_from([4, 16]),
            snapshot_every_s=st.sampled_from([50, 2000]),
        )
        def test_every_route_reports_the_walk_on_any_batches(
            self, tmp_path_factory, batches, buffer_addrs, snapshot_every_s
        ):
            params = SystemParams(
                index=IndexParams(
                    hash_rows=64,
                    memory_buffer_addrs=buffer_addrs,
                    snapshot_leaf_threshold=1,
                )
            )
            with pytest.MonkeyPatch.context() as patch:
                seen = _record_ingests(patch, walk=True)
                _drive_every_ingest_route(
                    tmp_path_factory.mktemp("routes"), batches, params, snapshot_every_s
                )
            assert [report.index_memory_bytes for report, _ in seen] == [
                walk for _, walk in seen
            ]


# ---------------------------------------------------------------------------
# re-split pages
# ---------------------------------------------------------------------------


def _pack_pages_reencoding(system, lines):
    """``MithriLogSystem._pack_pages`` as it was, encoding every half
    again: the page-boundary oracle."""
    page_bytes = system.params.storage.page_bytes
    ratio_estimate = 2.0
    i = 0
    n = len(lines)
    while i < n:
        target = max(1, int(page_bytes * ratio_estimate * 0.9))
        chunk = []
        used = 0
        j = i
        while j < n and (used + len(lines[j]) + 1 <= target or not chunk):
            chunk.append(lines[j])
            used += len(lines[j]) + 1
            j += 1
        text = b"\n".join(chunk) + b"\n"
        payload = system.codec.compress(text)
        while len(payload) > page_bytes:
            chunk = chunk[: len(chunk) // 2]
            text = b"\n".join(chunk) + b"\n"
            payload = system.codec.compress(text)
        ratio_estimate = 0.5 * ratio_estimate + 0.5 * (len(text) / len(payload))
        yield payload, text, len(chunk)
        i += len(chunk)


_CUT_PARAMS = [
    LZAHParams(word_bytes=w, pairs_per_chunk=chunk, hash_table_bytes=slots * w)
    for w in (8, 16)
    for chunk in (8, 128)
    for slots in (4, 4096)
]


def _assert_every_prefix_cuts(params, lines):
    codec = LZAHCompressor(params)
    stream = codec.compress(b"".join(line + b"\n" for line in lines))
    for k in range(len(lines) + 1):
        prefix = b"".join(line + b"\n" for line in lines[:k])
        assert codec.cut(stream, prefix) == codec.compress(prefix), k


def _small_page_system(realign):
    """256-byte pages, so short lines overflow a page and re-split."""
    return MithriLogSystem(
        SystemParams(
            lzah=LZAHParams(newline_realign=realign),
            storage=StorageParams(page_bytes=256),
        )
    )


class TestResplitPages:
    @pytest.mark.parametrize(
        "params", _CUT_PARAMS,
        ids=lambda p: f"w{p.word_bytes}-c{p.pairs_per_chunk}-s{p.hash_table_slots}",
    )
    def test_cut_is_the_encode_of_the_prefix(self, params):
        w = params.word_bytes
        # 1-pair lines: prefixes end on every chunk boundary
        lines = [b"", b"a" * (w - 1), b"b" * w, b"c" * (w + 1), b"d" * 3 * w]
        lines += [b"x%d" % (i % 5) for i in range(2 * 128 + 3)]
        _assert_every_prefix_cuts(params, lines)

    def test_only_a_line_aligned_prefix_of_a_realigned_text_cuts(self):
        text = b"alpha\nbeta\n"
        codec = LZAHCompressor()
        with pytest.raises(ValueError):
            codec.cut(codec.compress(text), b"alpha")
        fixed = LZAHCompressor(LZAHParams(newline_realign=False))
        with pytest.raises(ValueError):
            fixed.cut(fixed.compress(text), b"alpha\n")

    @pytest.mark.parametrize("realign", [True, False])
    def test_pages_are_the_reencoding_loops(self, realign, monkeypatch):
        system = _small_page_system(realign)
        lines = [line[:120] for line in _corpus("Liberty2")[:300] + _corpus("BGL2")[:300]]
        calls = collections.Counter()
        for name in ("compress", "cut"):
            method = getattr(system.codec, name)
            monkeypatch.setattr(
                system.codec, name,
                lambda *args, _m=method, _n=name: calls.update([_n]) or _m(*args),
            )
        pages = list(system._pack_pages(lines))
        # one encode a page with realignment, the halves cut from it;
        # without it every half is encoded again
        if realign:
            assert calls["compress"] == len(pages) and calls["cut"] > 0
        else:
            assert calls["compress"] > len(pages) and not calls["cut"]
        monkeypatch.undo()
        assert pages == list(_pack_pages_reencoding(system, lines))

    if HAVE_HYPOTHESIS:
        _LINE = st.one_of(
            st.sampled_from([0, 7, 8, 15, 16, 17, 32]), st.integers(0, 48)
        ).flatmap(
            lambda n: st.lists(
                st.sampled_from(b"ab \0\r\t\xff"), min_size=n, max_size=n
            ).map(bytes)
        )

        @settings(max_examples=150, deadline=None)
        @given(
            params=st.sampled_from(_CUT_PARAMS),
            lines=st.lists(_LINE, min_size=1, max_size=12).flatmap(
                lambda pool: st.lists(st.sampled_from(pool), max_size=200)
            ),
        )
        def test_cut_is_the_encode_of_any_prefix(self, params, lines):
            _assert_every_prefix_cuts(params, lines)

        @settings(max_examples=60, deadline=None)
        @given(
            realign=st.booleans(),
            lines=st.lists(_LINE, min_size=1, max_size=20).flatmap(
                lambda pool: st.lists(st.sampled_from(pool), max_size=120)
            ),
        )
        def test_pages_are_the_reencoding_loops_on_any_lines(self, realign, lines):
            system = _small_page_system(realign)
            assert list(system._pack_pages(lines)) == list(
                _pack_pages_reencoding(system, lines)
            )


# ---------------------------------------------------------------------------
# what ingest pays for
# ---------------------------------------------------------------------------


def test_ingest_never_walks_the_table_and_encodes_each_page_once(
    tmp_path, monkeypatch
):
    """A cost guard without a clock: no ingest route reaches the table
    walk, and each page written costs one ``compress``, re-splits
    included."""

    def walk(_table):
        raise AssertionError("an ingest walked every hash row")

    monkeypatch.setattr(HashIndexTable, "memory_footprint_bytes", walk)
    calls = collections.Counter()
    for name in ("compress", "cut"):
        method = getattr(LZAHCompressor, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(LZAHCompressor, name, counted)
    seen = _record_ingests(monkeypatch, walk=False)
    _drive_every_ingest_route(tmp_path, _MIXED_BATCHES, _ROUTE_PARAMS, 300)
    assert calls["cut"] > 0  # the mixed corpus overflows chunks
    assert calls["compress"] == sum(report.pages_written for report, _ in seen)
