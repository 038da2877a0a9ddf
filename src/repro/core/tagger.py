"""Wire-speed template-ID tagging (Section 8's ongoing work).

The paper's conclusion names "exploring wire-speed methods for tagging
each log line with template IDs" as the natural next step beyond
keep/drop filtering. The hardware already computes everything needed: the
per-intersection-set satisfaction bits of Figure 6. This module adds the
thin layer on top:

- each template's compiled query occupies one intersection set (flag
  pair), so one pass tags up to ``FLAG_PAIRS`` templates;
- a template library larger than the flag-pair budget runs in several
  passes, exactly as host software would reprogram the accelerator
  between scans;
- when several templates are satisfied (an FT-tree template can be a
  path prefix of another), the *most specific* one — most positive
  terms, ties to the lower id — wins, matching tree classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.hashfilter import HashFilter, compile_queries
from repro.core.query import Query
from repro.core.tokenizer import split_tokens
from repro.errors import QueryError
from repro.params import CuckooParams


@dataclass(frozen=True)
class TaggedLine:
    """One line's tagging outcome."""

    line: bytes
    template_id: Optional[int]


@dataclass(frozen=True)
class _Pass:
    """One accelerator programming: up to FLAG_PAIRS templates."""

    filter: HashFilter
    template_ids: tuple[int, ...]
    specificity: tuple[int, ...]  # positive-term counts per query


class TemplateTagger:
    """Tags lines with template ids using the hash-filter hardware model."""

    def __init__(
        self,
        templates: Sequence[tuple[int, Query]],
        cuckoo_params: Optional[CuckooParams] = None,
        seed: int = 0,
    ) -> None:
        if not templates:
            raise QueryError("tagger needs at least one template query")
        for _tid, query in templates:
            if len(query.intersections) != 1:
                raise QueryError(
                    "template queries must be single intersection sets; "
                    f"got {len(query.intersections)}"
                )
        self.params = cuckoo_params if cuckoo_params is not None else CuckooParams()
        self._passes = self._compile_passes(list(templates), seed)

    @classmethod
    def from_tree(cls, tree, **kwargs) -> "TemplateTagger":
        """Build a tagger for every template of an FT-tree."""
        templates = [
            (t.template_id, tree.template_query(t)) for t in tree.templates
        ]
        return cls(templates, **kwargs)

    @property
    def num_passes(self) -> int:
        """Accelerator reprogrammings needed per scan of the data."""
        return len(self._passes)

    @property
    def num_templates(self) -> int:
        return sum(len(p.template_ids) for p in self._passes)

    def _compile_passes(
        self, templates: list[tuple[int, Query]], seed: int
    ) -> list[_Pass]:
        passes: list[_Pass] = []
        budget = self.params.flag_pairs
        for base in range(0, len(templates), budget):
            batch = templates[base : base + budget]
            passes.extend(self._compile_batch(batch, seed))
        return passes

    def _compile_batch(
        self, batch: list[tuple[int, Query]], seed: int
    ) -> list[_Pass]:
        """Compile one batch, riding out cuckoo placement failures.

        A dense batch (eight templates, a hundred-odd tokens) can fail
        placement even under the load-factor bound; host software retries
        with fresh hash seeds, and as a last resort splits the batch
        across extra passes — correctness is never at risk, only pass
        count.
        """
        from repro.errors import CapacityError, PlacementError

        for attempt in range(4):
            try:
                program = compile_queries(
                    [query for _tid, query in batch],
                    params=self.params,
                    seed=seed + attempt,
                )
            except (PlacementError, CapacityError):
                continue
            return [
                _Pass(
                    filter=HashFilter(program),
                    template_ids=tuple(tid for tid, _q in batch),
                    specificity=tuple(
                        len(query.intersections[0].positives)
                        for _tid, query in batch
                    ),
                )
            ]
        if len(batch) == 1:
            raise PlacementError(
                f"template {batch[0][0]} cannot be placed even alone"
            )
        half = len(batch) // 2
        return self._compile_batch(batch[:half], seed) + self._compile_batch(
            batch[half:], seed
        )

    def tag_line(self, line: bytes) -> Optional[int]:
        """The template id of one line, or ``None`` if nothing matches."""
        tokens = split_tokens(line)
        best: Optional[tuple[int, int]] = None  # (-specificity, template_id)
        for p in self._passes:
            (verdicts,) = p.filter.evaluate_token_lists([tokens])
            for hit, tid, spec in zip(verdicts, p.template_ids, p.specificity):
                if hit:
                    key = (-spec, tid)
                    if best is None or key < best:
                        best = key
        return None if best is None else best[1]

    def tag_lines(self, lines: Sequence[bytes]) -> list[TaggedLine]:
        """Tag a batch of lines (one simulated multi-pass scan)."""
        return [TaggedLine(line=line, template_id=self.tag_line(line)) for line in lines]

    def histogram(self, lines: Sequence[bytes]) -> dict[Optional[int], int]:
        """Template-id counts over a batch — the input higher-order
        analytics (Section 8) consume."""
        counts: dict[Optional[int], int] = {}
        for tagged in self.tag_lines(lines):
            counts[tagged.template_id] = counts.get(tagged.template_id, 0) + 1
        return counts
