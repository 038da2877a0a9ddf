"""The multi-pipeline token filter engine.

:class:`TokenFilterEngine` is the host-facing object: give it one or more
queries (they run concurrently, joined by union per Section 4), then feed
it lines. It compiles the queries into a cuckoo program and runs them on
``num_pipelines`` functional pipelines; when compilation cannot fit the
hardware provisioning — too many intersection sets, overflow exhaustion
or cuckoo placement failure — it falls back to software evaluation, as
the paper prescribes (Section 4.2.1), unless the caller forbids it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.hashfilter import CompiledQuery, compiled_program
from repro.core.pipeline import FilterPipeline
from repro.core.query import Query
from repro.errors import CapacityError, PlacementError, QueryError
from repro.obs.metrics import handle
from repro.params import CuckooParams, PipelineParams


@dataclass
class EngineResult:
    """Filtering outcome for a batch of lines."""

    verdicts: list[tuple[bool, ...]]
    offloaded: bool
    num_queries: int

    @property
    def lines(self) -> int:
        return len(self.verdicts)

    def kept_any(self) -> list[bool]:
        return [any(v) for v in self.verdicts]

    def kept_indices(self, query: Optional[int] = None) -> list[int]:
        """Indices of kept lines, overall or for one concurrent query."""
        if query is None:
            return [i for i, v in enumerate(self.verdicts) if any(v)]
        return [i for i, v in enumerate(self.verdicts) if v[query]]

    def kept_count(self, query: Optional[int] = None) -> int:
        return len(self.kept_indices(query))


class TokenFilterEngine:
    """Host-facing filter engine: compile queries, then filter lines."""

    def __init__(
        self,
        num_pipelines: int = 4,
        cuckoo_params: Optional[CuckooParams] = None,
        pipeline_params: Optional[PipelineParams] = None,
        allow_software_fallback: bool = True,
        seed: int = 0,
    ) -> None:
        if num_pipelines <= 0:
            raise ValueError("need at least one pipeline")
        self.num_pipelines = num_pipelines
        self.cuckoo_params = cuckoo_params if cuckoo_params is not None else CuckooParams()
        self.pipeline_params = (
            pipeline_params if pipeline_params is not None else PipelineParams()
        )
        self.allow_software_fallback = allow_software_fallback
        self.seed = seed
        self._queries: tuple[Query, ...] = ()
        self._program: Optional[CompiledQuery] = None
        self._pipelines: list[FilterPipeline] = []
        self._m_compiles = handle("mithrilog_pipeline_compiles_total")
        self._m_lines_filtered = handle("mithrilog_pipeline_lines_filtered_total")
        self._m_lines_kept = handle("mithrilog_pipeline_lines_kept_total")

    # -- compilation -------------------------------------------------------

    def compile(self, *queries: Query) -> bool:
        """Program the engine with queries; returns True when offloaded.

        Falls back to software evaluation when hardware provisioning is
        exceeded (returns False) unless ``allow_software_fallback`` is off,
        in which case the placement/capacity error propagates.
        """
        if not queries:
            raise QueryError("compile needs at least one query")
        self._queries = tuple(queries)
        try:
            self._program = compiled_program(
                self._queries, self.cuckoo_params, self.seed
            )
        except (PlacementError, CapacityError):
            if not self.allow_software_fallback:
                raise
            self._program = None
            self._pipelines = []
            self._m_compiles.inc(mode="software")
            return False
        self._pipelines = [
            FilterPipeline(self._program, self.pipeline_params)
            for _ in range(self.num_pipelines)
        ]
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
        self._require_compiled()
        isets = [iset for q in self._queries for iset in q.intersections]
        return {
            "queries": len(self._queries),
            "intersection_sets": len(isets),
            "positive_terms": sum(len(i.positives) for i in isets),
            "negative_terms": sum(len(i.negatives) for i in isets),
            "mode": "hardware" if self._program is not None else "software",
            "pipelines": self.num_pipelines,
        }

    def _require_compiled(self) -> None:
        if not self._queries:
            raise QueryError("no query compiled; call compile() first")

    # -- filtering ---------------------------------------------------------

    def filter_lines(self, lines: Sequence[bytes]) -> EngineResult:
        """Filter a batch of lines against the compiled queries.

        Lines are split into contiguous blocks across pipelines — the way
        pages from storage are distributed — and verdicts are gathered
        back in input order.
        """
        self._require_compiled()
        if self._program is None:
            verdicts = [
                tuple(q.matches_line(line) for q in self._queries)
                for line in lines
            ]
            result = EngineResult(
                verdicts=verdicts, offloaded=False, num_queries=len(self._queries)
            )
        else:
            block = -(-len(lines) // self.num_pipelines) if lines else 0
            verdicts = []
            for p_index, pipeline in enumerate(self._pipelines):
                chunk = lines[p_index * block : (p_index + 1) * block]
                if not chunk:
                    break
                verdicts.extend(pipeline.process_lines(chunk).verdicts)
            result = EngineResult(
                verdicts=verdicts, offloaded=True, num_queries=len(self._queries)
            )
        if result.lines:
            self._m_lines_filtered.inc(result.lines)
            kept = sum(1 for v in result.verdicts if any(v))
            if kept:
                self._m_lines_kept.inc(kept)
        return result

    def account_filtered(self, kept: int) -> None:
        """Record a pass's matched lines in ``mithrilog_pipeline_lines_*``:
        the scan kernel evaluated them (a matched line is by definition
        kept), so nothing re-runs :meth:`filter_lines` to count them."""
        if kept:
            self._m_lines_filtered.inc(kept)
            self._m_lines_kept.inc(kept)
