"""Cost-based query planning: index path vs full scan.

Section 3: host software decides per query how to configure the
decompressor/filter pipeline and which pages to request. That decision
has a real crossover — for negative-heavy or low-selectivity queries the
index walk buys nothing (Section 7.5's observation), and the latency-
bound index traversal can even cost more than it saves on small ranges.

The planner estimates candidate volume *without* touching storage, from
the in-memory hash table's per-row counters (the same counters two-choice
insertion maintains), then compares the modelled cost of the index path
(lookup latency + candidate scan) against a straight full scan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.query import Query
from repro.system.mithrilog import MithriLogSystem, QueryOutcome, _union


@dataclass(frozen=True)
class QueryPlan:
    """The planner's decision and its inputs."""

    use_index: bool
    estimated_candidate_pages: int
    total_pages: int
    estimated_index_s: float
    estimated_index_path_s: float
    estimated_scan_s: float
    reason: str

    @property
    def estimated_selectivity(self) -> float:
        if self.total_pages == 0:
            return 1.0
        return self.estimated_candidate_pages / self.total_pages


class QueryPlanner:
    """Chooses the cheaper execution path for a query."""

    def __init__(self, system: MithriLogSystem) -> None:
        self.system = system

    # -- estimation ------------------------------------------------------

    def _estimate_token_pages(self, token: bytes) -> int:
        """Upper bound on a token's candidate pages from row counters.

        A token's postings live in its (two) rows; each row's counter
        tracks every page address ever pushed there, so the sum bounds
        the union the query path would read. No storage access needed.
        """
        table = self.system.index.table
        total = 0
        for row_id in table.candidate_rows(token):
            row = table.peek_row(row_id)
            if row is not None:
                total += row.total_pages
        return min(total, self.system.index.total_data_pages)

    def estimate_candidates(self, query: Query) -> int:
        """Estimated candidate pages across the query's intersection sets."""
        total_pages = self.system.index.total_data_pages
        estimate = 0
        for iset in query.intersections:
            positives = iset.positives
            if not positives:
                return total_pages  # a negative-only set forces a full scan
            estimate += min(
                self._estimate_token_pages(term.token) for term in positives
            )
        return min(estimate, total_pages)

    # -- costing ---------------------------------------------------------

    def _scan_seconds(self, pages: int) -> float:
        storage = self.system.params.storage
        compressed = pages * storage.page_bytes
        ratio = max(
            1.0,
            self.system.original_bytes
            / max(1, self.system.index.total_data_pages * storage.page_bytes),
        )
        decompressed = compressed * ratio
        return max(
            storage.flash_seconds(compressed),
            decompressed / self.system.accelerator_rate,
        )

    def _index_seconds(self, query: Query) -> float:
        """Latency-bound traversal estimate: one access per positive-token
        lookup plus one per expected root hop."""
        latency = self.system.params.storage.latency_s
        addrs_per_hop = self.system.params.index.addrs_per_root_visit
        accesses = 0
        for iset in query.intersections:
            for term in iset.positives:
                accesses += 1  # posting fetch
                accesses += self._estimate_token_pages(term.token) // addrs_per_hop
        return accesses * latency

    def plan(self, query: Query) -> QueryPlan:
        total = self.system.index.total_data_pages
        candidates = self.estimate_candidates(query)
        index_s = self._index_seconds(query)
        index_path = index_s + self._scan_seconds(candidates)
        scan_path = self._scan_seconds(total)
        use_index = False
        if candidates >= total:
            reason = (
                "index cannot narrow the query (negative-only or "
                "universal tokens)"
            )
        elif index_path >= scan_path:
            reason = (
                "index traversal costs more than it saves at this "
                "selectivity"
            )
        else:
            use_index = True
            reason = f"index narrows to ~{candidates}/{total} pages"
        return QueryPlan(
            use_index=use_index,
            estimated_candidate_pages=candidates,
            total_pages=total,
            estimated_index_s=index_s,
            estimated_index_path_s=index_path,
            estimated_scan_s=scan_path,
            reason=reason,
        )

    # -- execution ----------------------------------------------------------

    def execute(self, *queries: Query) -> tuple[QueryPlan, QueryOutcome]:
        """Plan over the union of queries, then run the chosen path."""
        plan = self.plan(_union(queries))
        outcome = self.system.query(*queries, use_index=plan.use_index)
        return plan, outcome
