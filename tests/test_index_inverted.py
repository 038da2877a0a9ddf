"""Tests for the inverted-index facade, including the superset invariant."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.query import Term, parse_query
from repro.core.tokenizer import split_tokens
from repro.errors import LogIndexError
from repro.index.inverted import InvertedIndex
from repro.params import IndexParams, StorageParams
from repro.storage.flash import FlashArray


def build_index(pages: dict[int, list[bytes]], **kwargs) -> InvertedIndex:
    flash = FlashArray(StorageParams(capacity_pages=65536))
    index = InvertedIndex(flash, **kwargs)
    for addr in sorted(pages):
        index.index_page(addr, pages[addr])
    return index


PAGES = {
    0: [b"RAS", b"KERNEL", b"INFO"],
    1: [b"RAS", b"APP", b"FATAL"],
    2: [b"job", b"failed", b"pbs_mom:"],
    3: [b"job", b"failed"],
    4: [b"idle", b"heartbeat"],
}


class TestLookup:
    def test_single_token_superset(self):
        index = build_index(PAGES)
        pages, _ = index.lookup_token(b"RAS")
        assert {0, 1}.issubset(pages)

    def test_unknown_token_may_be_empty(self):
        index = build_index(PAGES)
        pages, _ = index.lookup_token(b"never-indexed-token-xyz")
        # probabilistic: can only contain pages of colliding tokens
        assert set(pages).issubset(set(PAGES))

    def test_results_sorted_ascending(self):
        index = build_index(PAGES)
        pages, _ = index.lookup_token(b"job")
        assert pages == sorted(pages)


class TestCandidatePages:
    def test_positive_intersection(self):
        index = build_index(PAGES)
        result = index.candidate_pages(parse_query("job AND pbs_mom:"))
        assert 2 in result.pages
        assert result.stats.tokens_looked_up == 2
        assert not result.stats.full_scan

    def test_union_of_intersections(self):
        index = build_index(PAGES)
        result = index.candidate_pages(parse_query("FATAL OR heartbeat"))
        assert {1, 4}.issubset(result.pages)

    def test_negative_only_query_full_scans(self):
        index = build_index(PAGES)
        result = index.candidate_pages(parse_query("NOT job"))
        assert result.stats.full_scan
        assert result.pages == tuple(sorted(PAGES))

    def test_negative_terms_ignored_when_positives_exist(self):
        index = build_index(PAGES)
        result = index.candidate_pages(parse_query("failed AND NOT pbs_mom:"))
        # the index narrows by 'failed' only; the filter removes page 2 later
        assert {2, 3}.issubset(result.pages)
        assert result.stats.tokens_looked_up == 1

    def test_selectivity(self):
        index = build_index(PAGES)
        result = index.candidate_pages(parse_query("heartbeat"))
        assert result.selectivity(index.total_data_pages) <= 1.0

    def test_superset_invariant_on_real_lines(self):
        lines_per_page = {
            10: [b"RAS KERNEL INFO cache parity", b"RAS KERNEL FATAL tlb"],
            20: [b"job 9 failed pbs_mom: cleanup"],
            30: [b"idle node heartbeat ok"],
        }
        pages = {
            addr: [t for line in lines for t in split_tokens(line)]
            for addr, lines in lines_per_page.items()
        }
        index = build_index(pages)
        query = parse_query("failed AND NOT pbs_mom:")
        result = index.candidate_pages(query)
        truly_matching = {
            addr
            for addr, lines in lines_per_page.items()
            if any(query.matches_line(line) for line in lines)
        }
        assert truly_matching.issubset(set(result.pages))


class TestIngestInvariants:
    def test_out_of_order_page_rejected(self):
        flash = FlashArray(StorageParams(capacity_pages=1024))
        index = InvertedIndex(flash)
        index.index_page(5, [b"a"])
        with pytest.raises(LogIndexError):
            index.index_page(5, [b"b"])
        with pytest.raises(LogIndexError):
            index.index_page(3, [b"c"])

    def test_memory_footprint_bounded(self):
        pages = {i: [f"tok{i % 40}".encode(), b"common"] for i in range(3000)}
        index = build_index(pages, params=IndexParams(hash_rows=1 << 10))
        # far below holding all 3000*2 postings in memory
        assert index.memory_footprint_bytes() < 200_000

    def test_snapshot_triggered_during_ingest(self):
        flash = FlashArray(StorageParams(capacity_pages=65536))
        params = IndexParams(snapshot_leaf_threshold=1)
        index = InvertedIndex(flash, params=params)
        # a leaf *page* spills after 64 leaf nodes = 1024 buffered addresses
        # per row; several common tokens get there quickly
        common = [f"common{i}".encode() for i in range(8)]
        for addr in range(2600):
            index.index_page(addr, common, timestamp=float(addr))
        assert len(index.snapshots.snapshots) >= 1

    def test_flush_then_query_still_works(self):
        index = build_index(PAGES)
        index.flush(timestamp=1.0)
        pages, _ = index.lookup_token(b"RAS")
        assert {0, 1}.issubset(pages)


class TestTimeBoundedQueries:
    def _timed_index(self):
        # drive snapshots explicitly at known times: page addr == timestamp
        flash = FlashArray(StorageParams(capacity_pages=65536))
        index = InvertedIndex(flash)
        for addr in range(200):
            tokens = [b"tick", f"u{addr}".encode()]
            index.index_page(addr, tokens)
            if addr in (50, 100, 150):
                index.flush(timestamp=float(addr))
        index.flush(timestamp=200.0)
        return index

    @staticmethod
    def _bounded(index, query, time_range):
        """Candidates inside the snapshot bound, as the system selects them."""
        low, high = index.snapshots.page_range_for_time(*time_range)
        pages = index.candidate_pages(parse_query(query)).pages
        return [p for p in pages if p >= low and (high is None or p < high)]

    def test_time_range_narrows_candidates(self):
        index = self._timed_index()
        full = index.candidate_pages(parse_query("tick"))
        bounded = self._bounded(index, "tick", (150.0, 199.0))
        assert len(bounded) < len(full.pages)
        assert set(bounded).issubset(set(full.pages))

    def test_time_range_keeps_matching_pages(self):
        index = self._timed_index()
        assert 175 in self._bounded(index, "u175", (150.0, 199.0))


class TestSupersetProperty:
    @given(
        st.dictionaries(
            st.integers(0, 400),
            st.lists(
                st.sampled_from([b"a", b"bb", b"ccc", b"dd", b"e", b"ff"]),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=60,
        ),
        st.sampled_from([b"a", b"bb", b"ccc", b"dd"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_index_never_misses_a_page(self, pages, token):
        index = build_index(pages, params=IndexParams(hash_rows=64))
        found, _ = index.lookup_token(token)
        expected = {addr for addr, toks in pages.items() if token in toks}
        assert expected.issubset(set(found))
