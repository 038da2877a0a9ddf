"""Tests for the two-hash in-memory table and snapshot index."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LogIndexError
from repro.index.hashindex import HashIndexTable, RowState
from repro.index.snapshots import SnapshotIndex
from repro.index.storetree import NIL, TreeListStore
from repro.params import PAGE_BYTES, IndexParams, StorageParams
from repro.storage.flash import FlashArray


@pytest.fixture
def flash():
    return FlashArray(StorageParams(capacity_pages=8192))


@pytest.fixture
def store(flash):
    return TreeListStore(flash, PAGE_BYTES)


class TestHashIndexTable:
    def test_two_candidate_rows(self):
        table = HashIndexTable()
        rows = table.candidate_rows(b"kernel")
        assert len(rows) == 2

    def test_single_hash_configuration(self):
        table = HashIndexTable(IndexParams(num_hash_functions=1))
        assert len(table.candidate_rows(b"kernel")) == 1

    def test_insert_buffers_in_memory(self, store):
        table = HashIndexTable()
        table.insert(b"tok", 0, store)
        rows = [table.peek_row(r) for r in table.candidate_rows(b"tok")]
        assert [row.buffer for row in rows] == [[0], []]  # ties go to the first
        assert store.leaves.nodes_written == 0

    def test_buffer_spills_at_sixteen(self, store):
        # single hash function so all pages land in one row
        table = HashIndexTable(IndexParams(num_hash_functions=1))
        for page in range(16):
            table.insert(b"tok", page, store)
        assert store.leaves.nodes_written == 1

    def test_root_persisted_after_256_pages(self, store):
        # 256 pages in one row = 16 full leaves = one persisted root
        table = HashIndexTable(IndexParams(num_hash_functions=1))
        for page in range(256):
            table.insert(b"tok", page, store)
        row = table.peek_row(table.candidate_rows(b"tok")[0])
        assert row is not None and row.head_root != NIL

    def test_two_hash_insert_splits_across_rows(self, store):
        # with two hash functions the same 16 pages split between two rows,
        # so neither buffer fills (the balancing Section 6.2 describes)
        table = HashIndexTable()
        for page in range(16):
            table.insert(b"tok", page, store)
        assert store.leaves.nodes_written == 0

    def test_duplicate_page_for_row_deduped(self, store):
        params = IndexParams(num_hash_functions=1)
        table = HashIndexTable(params)
        row_id = table.candidate_rows(b"tok")[0]
        table.insert(b"tok", 7, store)
        table.insert(b"tok", 7, store)
        assert table.peek_row(row_id).buffer == [7]

    def test_two_choice_balancing(self, store):
        # one very common token: its pages spread across both rows
        table = HashIndexTable()
        for page in range(0, 200, 2):
            table.insert(b"common", page, store)
            table.insert(b"other", page + 1, store)
        r0, r1 = table.candidate_rows(b"common")
        c0 = table.peek_row(r0).total_pages
        c1 = table.peek_row(r1).total_pages
        assert c0 > 0 and c1 > 0  # both rows received inserts

    def test_flush_all_persists_partials(self, store):
        table = HashIndexTable()
        table.insert(b"tok", 3, store)
        table.flush_all(store)
        rows = [table.peek_row(r) for r in table.candidate_rows(b"tok")]
        assert any(r.head_root != NIL for r in rows)
        assert all(not r.buffer and not r.partial_root for r in rows)

    def test_memory_footprint_stays_small(self, store):
        table = HashIndexTable()
        for page in range(2000):
            table.insert(f"tok{page % 50}".encode(), page, store)
        # 50 tokens' worth of row state, each bounded by 16+16 entries
        assert table.memory_footprint_bytes() < 100 * (32 + 2) * 4

    def test_deterministic_hashing(self):
        assert HashIndexTable().candidate_rows(b"x") == HashIndexTable().candidate_rows(
            b"x"
        )

    def test_host_bytes_per_row(self, store):
        # a fixed stream: 1000 pages of 40 tokens from 20k -> ~12k rows
        # holding ~3 buffered addresses each. Slotted rows whose partial
        # root is the shared () take ~234 host bytes a row here (the dict
        # slot, the row id, the record, its buffer list); a row with an
        # instance dict and an empty partial-root list took ~330
        vocab = [b"t%d" % i for i in range(20_000)]
        pages = [
            [vocab[(page * 7919 + k * 104_729) % len(vocab)] for k in range(40)]
            for page in range(1000)
        ]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = HashIndexTable()
            for addr, tokens in enumerate(pages):
                table.insert_page(tokens, addr, store)
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert table.rows_in_use > 11_000
        assert used / table.rows_in_use < 270

    def test_partial_root_is_shared_until_a_leaf_spills(self, store):
        table = HashIndexTable(IndexParams(num_hash_functions=1))
        table.insert(b"tok", 0, store)
        row = table.peek_row(table.candidate_rows(b"tok")[0])
        assert row.partial_root == () and not hasattr(row, "__dict__")
        for page in range(1, 16):
            table.insert(b"tok", page, store)
        assert row.partial_root == [0]  # a list from the first leaf on
        for page in range(16, 256):
            table.insert(b"tok", page, store)
        assert row.partial_root == () and row.head_root != NIL

    def test_seed_changes_rows(self):
        tokens = [f"t{i}".encode() for i in range(20)]
        a = [HashIndexTable(seed=1).candidate_rows(t) for t in tokens]
        b = [HashIndexTable(seed=2).candidate_rows(t) for t in tokens]
        assert a != b


# one row of a table image: its buffer is empty, partial or full (16,
# the size that spills), 0-15 partial-root leaves, a NIL or set head
_ROW = st.tuples(
    st.lists(st.integers(0, 2**32 - 1), max_size=16),
    st.lists(st.integers(0, 2**32 - 1), max_size=15),
    st.one_of(st.just(NIL), st.integers(0, 2**32 - 2)),
    st.integers(0, 2**32 - 1),
)


def _table_with(rows):
    table = HashIndexTable()
    table._rows = {
        row_id: RowState(list(buffer), list(partial_root) or (), head, total)
        for row_id, (buffer, partial_root, head, total) in rows
    }
    return table


def _flushed_pages(table):
    flash = FlashArray(StorageParams(capacity_pages=8192))
    table.flush_all(TreeListStore(flash, PAGE_BYTES))
    return [flash.read_page(addr).data for addr in range(flash.pages_written)]


class TestTableImage:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, (1 << 16) - 1), _ROW),
            max_size=40,
            unique_by=lambda row: row[0],
        )
    )
    def test_round_trip_through_json(self, rows):
        table = _table_with(rows)
        image = json.loads(json.dumps(table.to_state()))
        assert all(isinstance(column, str) for column in image.values())
        restored = HashIndexTable()
        restored.restore_state(image)
        # rows and their order (flush order) come back as they were
        assert list(restored._rows.items()) == list(table._rows.items())
        assert restored.memory_footprint_bytes() == table.memory_footprint_bytes()
        assert 4 * restored.words == restored.memory_footprint_bytes()
        assert _flushed_pages(restored) == _flushed_pages(table)

    def test_round_trip_of_an_ingested_table(self, store):
        table = HashIndexTable(IndexParams(hash_rows=64))
        for page in range(3000):
            table.insert_page([b"t%d" % (page % 97), b"t%d" % (page % 13)], page, store)
        assert any(row.partial_root for row in table._rows.values())
        assert any(row.head_root != NIL for row in table._rows.values())
        restored = HashIndexTable(IndexParams(hash_rows=64))
        restored.restore_state(json.loads(json.dumps(table.to_state())))
        assert list(restored._rows.items()) == list(table._rows.items())

    def test_columns_that_disagree_are_refused(self):
        image = _table_with([(3, ([1, 2], [7], NIL, 2))]).to_state()
        image["buffers"] = image["buffers"][:8]  # one address of two
        with pytest.raises(LogIndexError, match="disagree"):
            HashIndexTable().restore_state(image)


class TestSnapshotIndex:
    def test_threshold_gates_flush(self):
        snaps = SnapshotIndex(leaf_page_threshold=10)
        assert not snaps.should_flush(9)
        assert snaps.should_flush(10)

    def test_threshold_relative_to_last_flush(self):
        snaps = SnapshotIndex(leaf_page_threshold=10)
        snaps.record_flush(1.0, data_page_watermark=100, leaf_pages_created=10)
        assert not snaps.should_flush(15)
        assert snaps.should_flush(20)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            SnapshotIndex(leaf_page_threshold=0)

    def test_timestamps_must_be_monotone(self):
        snaps = SnapshotIndex(leaf_page_threshold=1)
        snaps.record_flush(5.0, 10, 1)
        with pytest.raises(ValueError):
            snaps.record_flush(4.0, 20, 2)

    def test_page_range_unbounded_without_snapshots(self):
        snaps = SnapshotIndex(leaf_page_threshold=1)
        assert snaps.page_range_for_time(1.0, 2.0) == (0, None)

    def test_page_range_bounds(self):
        snaps = SnapshotIndex(leaf_page_threshold=1)
        snaps.record_flush(10.0, data_page_watermark=100, leaf_pages_created=1)
        snaps.record_flush(20.0, data_page_watermark=200, leaf_pages_created=2)
        snaps.record_flush(30.0, data_page_watermark=300, leaf_pages_created=3)
        low, high = snaps.page_range_for_time(15.0, 25.0)
        # everything before t=10 flush is certainly older than 15
        assert low == 100
        # first snapshot at/after 25 is t=30, watermark 300
        assert high == 300

    def test_page_range_conservative_for_exact_times(self):
        snaps = SnapshotIndex(leaf_page_threshold=1)
        snaps.record_flush(10.0, 100, 1)
        low, high = snaps.page_range_for_time(10.0, 10.0)
        assert low <= 100
        assert high is None or high >= 100

    def test_open_ended_ranges(self):
        snaps = SnapshotIndex(leaf_page_threshold=1)
        snaps.record_flush(10.0, 100, 1)
        assert snaps.page_range_for_time(None, None) == (0, None)
        low, high = snaps.page_range_for_time(None, 5.0)
        assert low == 0 and high == 100
