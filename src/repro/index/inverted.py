"""The inverted-index facade (Section 6).

Ties the in-memory two-hash table, the in-storage tree lists and the
snapshot index together behind the two operations the system needs:

- :meth:`InvertedIndex.index_page` during ingest (one call per stored
  data page with that page's token set),
- :meth:`InvertedIndex.candidate_pages` during query: map a
  union-of-intersections query to the sorted set of data pages that must
  be read and filtered. The result is a **superset** of the truly
  matching pages (the table is probabilistic and negative terms cannot
  be indexed); the filter engine removes the false positives, so
  correctness never depends on the index (Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.query import Query
from repro.errors import LogIndexError
from repro.obs.metrics import NULL, handle
from repro.index.hashindex import HashIndexTable
from repro.index.snapshots import SnapshotIndex
from repro.index.storetree import NIL, LeafNode, TreeListStore
from repro.params import PAGE_BYTES, IndexParams
from repro.storage.flash import FlashArray


@dataclass
class IndexLookupStats:
    """Accounting for one query's index traversal."""

    tokens_looked_up: int = 0
    root_visits: int = 0
    candidate_pages: int = 0
    full_scan: bool = False


@dataclass(frozen=True)
class IndexLookupResult:
    """Sorted candidate data pages plus traversal statistics."""

    pages: tuple[int, ...]
    stats: IndexLookupStats

    def selectivity(self, total_data_pages: int) -> float:
        """Fraction of the store this query must still read (lower is
        better); 1.0 means the index saved nothing."""
        if total_data_pages == 0:
            return 0.0
        return len(self.pages) / total_data_pages


class InvertedIndex:
    """Storage-optimized probabilistic inverted index."""

    def __init__(
        self,
        flash: FlashArray,
        params: Optional[IndexParams] = None,
        page_bytes: int = PAGE_BYTES,
        seed: int = 0,
    ) -> None:
        self.params = params if params is not None else IndexParams()
        self.table = HashIndexTable(self.params, seed=seed)
        self.store = TreeListStore(flash, page_bytes)
        self.snapshots = SnapshotIndex(self.params.snapshot_leaf_threshold)
        self._data_pages: list[int] = []  # ascending (append-only ingest)
        self._m_lookups = handle("mithrilog_index_lookups_total")
        self._m_root_visits = handle("mithrilog_index_root_visits_total")
        self._m_full_scans = handle("mithrilog_index_full_scans_total")
        self._m_pages_indexed = handle("mithrilog_index_pages_indexed_total")
        self._m_memory = handle("mithrilog_index_memory_bytes")

    # -- ingest --------------------------------------------------------

    @property
    def data_pages(self) -> tuple[int, ...]:
        return tuple(self._data_pages)

    @property
    def total_data_pages(self) -> int:
        return len(self._data_pages)

    def index_page(
        self,
        page_addr: int,
        tokens: Iterable[bytes],
        timestamp: Optional[float] = None,
    ) -> None:
        """Index one stored data page under its (unique) token set.

        Pages must arrive in ascending address order — logs are
        append-only, and the chronology arguments of Section 6.3 rely on
        it.
        """
        if self._data_pages and page_addr <= self._data_pages[-1]:
            raise LogIndexError(
                f"data page {page_addr} indexed out of append order "
                f"(last was {self._data_pages[-1]})"
            )
        self._data_pages.append(page_addr)
        self._m_pages_indexed.inc()
        self.table.insert_page(tokens, page_addr, self.store)
        if timestamp is not None and self.snapshots.should_flush(
            self.store.leaves.pages_spilled
        ):
            self.flush(timestamp)

    def flush(self, timestamp: float = 0.0) -> None:
        """Persist all partial state and record a snapshot."""
        self.table.flush_all(self.store)
        watermark = self._data_pages[-1] + 1 if self._data_pages else 0
        self.snapshots.record_flush(
            timestamp=timestamp,
            data_page_watermark=watermark,
            leaf_pages_created=self.store.leaves.pages_spilled,
        )

    def memory_footprint_bytes(self) -> int:
        """In-memory ingest state, the paper's small-footprint claim, as
        the model counts it: the table's u32 words, the pools' tail
        pages and page maps, and a u32 per data page (not host bytes)."""
        return (
            self.table.memory_footprint_bytes()
            + self.store.memory_footprint_bytes
            + 4 * len(self._data_pages)
        )

    def counted_footprint_bytes(self) -> int:
        """:meth:`memory_footprint_bytes` in O(1): the table's term from
        its running word count instead of a walk over every row."""
        return (
            4 * self.table.words
            + self.store.memory_footprint_bytes
            + 4 * len(self._data_pages)
        )

    def lookup_seconds(
        self, stats: "IndexLookupStats", latency_s: float
    ) -> float:
        """Modelled traversal time: each posting fetch and each root hop
        is one latency-bound storage access (Section 6.1)."""
        return (stats.root_visits + stats.tokens_looked_up) * latency_s

    # -- query ---------------------------------------------------------

    def lookup_token(self, token: bytes) -> tuple[list[int], int]:
        """Candidate pages for one token: union of its (two) rows.

        Returns ``(sorted pages, root visits)``. Traversal yields pages
        in reverse-chronological order; per Section 6.3 the (small)
        result is reversed back — ascending page address *is*
        chronological order in an append-only log.
        """
        pages: set[int] = set()
        visits = 0
        for row_id in self.table.candidate_rows(token):
            row = self.table.peek_row(row_id)
            if row is None:
                continue
            pages.update(row.buffer)
            if row.partial_root:
                blobs = self.store.leaves.read_many(list(row.partial_root))
                for blob in blobs:
                    pages.update(LeafNode.unpack(blob).addresses)
            if row.head_root != NIL:
                walk = self.store.walk(row.head_root)
                pages.update(walk.addresses)
                visits += walk.root_visits
        return sorted(pages), visits

    def candidate_pages(self, query: Query) -> IndexLookupResult:
        """Candidate data pages for a full query.

        Positive terms intersect within an intersection set; sets union.
        A set with no positive terms (only negations) cannot be narrowed
        by the index and forces a scan of every data page — exactly the
        behaviour Section 7.5 observes on negative-heavy queries. A time
        bound is the caller's to apply (``SnapshotIndex.page_range_for_time``).
        """
        stats = IndexLookupStats()

        candidates: set[int] = set()
        for iset in query.intersections:
            positives = iset.positives
            if not positives:
                stats.full_scan = True
                candidates.update(self._data_pages)
                continue
            set_pages: Optional[set[int]] = None
            for term in positives:
                pages, visits = self.lookup_token(term.token)
                stats.tokens_looked_up += 1
                stats.root_visits += visits
                set_pages = (
                    set(pages) if set_pages is None else set_pages & set(pages)
                )
                if not set_pages:
                    break
            candidates.update(set_pages or ())

        pages = tuple(sorted(candidates))
        stats.candidate_pages = len(pages)
        if stats.tokens_looked_up:
            self._m_lookups.inc(stats.tokens_looked_up)
        if stats.root_visits:
            self._m_root_visits.inc(stats.root_visits)
        if stats.full_scan:
            self._m_full_scans.inc()
        if self._m_memory is not NULL:  # the footprint walks every hash row
            self._m_memory.set(self.memory_footprint_bytes())
        return IndexLookupResult(pages=pages, stats=stats)
