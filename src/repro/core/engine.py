"""The multi-pipeline token filter engine.

:class:`TokenFilterEngine` is the host-facing object: give it one or more
queries (they run concurrently, joined by union per Section 4) and it
compiles them into one cuckoo program for ``num_pipelines`` pipelines;
when compilation cannot fit the hardware provisioning — too many
intersection sets, overflow exhaustion or cuckoo placement failure — the
queries run in software instead, as the paper prescribes (Section
4.2.1). The engine evaluates no lines itself: the scan kernel
(:func:`repro.exec.executor._partition_kernel`) runs the program it
compiled, and reports what it saw back through :meth:`account_filtered`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.hashfilter import CompiledQuery, compiled_program
from repro.core.query import Query
from repro.errors import CapacityError, PlacementError, QueryError
from repro.obs.metrics import handle
from repro.params import CuckooParams


class TokenFilterEngine:
    """Host-facing filter engine: compile queries, count filtered lines."""

    def __init__(
        self,
        num_pipelines: int = 4,
        cuckoo_params: Optional[CuckooParams] = None,
        seed: int = 0,
    ) -> None:
        if num_pipelines <= 0:
            raise ValueError("need at least one pipeline")
        self.num_pipelines = num_pipelines
        self.cuckoo_params = cuckoo_params if cuckoo_params is not None else CuckooParams()
        self.seed = seed
        self._queries: tuple[Query, ...] = ()
        self._program: Optional[CompiledQuery] = None
        self._m_compiles = handle("mithrilog_pipeline_compiles_total")
        self._m_lines_filtered = handle("mithrilog_pipeline_lines_filtered_total")
        self._m_lines_kept = handle("mithrilog_pipeline_lines_kept_total")

    # -- compilation -------------------------------------------------------

    def compile(self, *queries: Query) -> bool:
        """Program the engine with queries; returns True when offloaded.

        Falls back to software evaluation (returns False) when hardware
        provisioning is exceeded.
        """
        if not queries:
            raise QueryError("compile needs at least one query")
        self._queries = tuple(queries)
        try:
            self._program = compiled_program(
                self._queries, self.cuckoo_params, self.seed
            )
        except (PlacementError, CapacityError):
            self._program = None
            self._m_compiles.inc(mode="software")
            return False
        self._m_compiles.inc(mode="hardware")
        return True

    @property
    def offloaded(self) -> bool:
        """True when the current queries run on the hardware model."""
        return self._program is not None

    @property
    def program(self) -> Optional[CompiledQuery]:
        return self._program

    @property
    def queries(self) -> tuple[Query, ...]:
        return self._queries

    def program_summary(self) -> dict:
        """Shape of the compiled program, for EXPLAIN reports.

        Deterministic in ``(queries, params, seed)``: the same inputs
        compile to the same mode and term counts, so the summary is safe
        inside golden-file plan comparisons.
        """
        if not self._queries:
            raise QueryError("no query compiled; call compile() first")
        isets = [iset for q in self._queries for iset in q.intersections]
        return {
            "queries": len(self._queries),
            "intersection_sets": len(isets),
            "positive_terms": sum(len(i.positives) for i in isets),
            "negative_terms": sum(len(i.negatives) for i in isets),
            "mode": "hardware" if self._program is not None else "software",
            "pipelines": self.num_pipelines,
        }

    # -- accounting --------------------------------------------------------

    def account_filtered(self, seen: int, kept: int) -> None:
        """Record in ``mithrilog_pipeline_lines_*`` the lines the scan
        kernel evaluated (``seen``) and kept under this engine's program."""
        if seen:
            self._m_lines_filtered.inc(seen)
        if kept:
            self._m_lines_kept.inc(kept)
