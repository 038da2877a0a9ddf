"""Batch software-fallback matcher — ``Query`` semantics over page arrays.

A query program that exceeds the engine's hardware provisioning (too
many intersection sets for the flag pairs, tokens that will not place in
the cuckoo table) runs in *software*: no compiled table exists, and the
reference scan path evaluates :meth:`repro.core.query.Query
.matches_tokens` per line. :class:`SoftwareBatchMatcher` gives the numpy
kernel the same semantics over :class:`repro.core.vectokenizer
.PageTokens`: it translates the query algebra into a
:class:`repro.core.factmatrix.FactProgram` — one fact per distinct
``(token, column)`` term — the same evaluator the offloaded route runs.

Deliberately counter-free, like the reference software path (no
:class:`~repro.core.hashfilter.HashFilter` counters are touched).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.factmatrix import FactProgram
from repro.core.query import Query

__all__ = ["SoftwareBatchMatcher"]


class SoftwareBatchMatcher:
    """Evaluates a tuple of queries per line over ``PageTokens`` arrays."""

    def __init__(self, queries: Sequence[Query]) -> None:
        self.queries = tuple(queries)
        fact_index: dict = {}
        isets = []
        for owner, query in enumerate(self.queries):
            for iset in query.intersections:
                terms = [
                    (fact_index.setdefault((t.token, t.column), len(fact_index)), t.negative)
                    for t in iset.terms
                ]
                isets.append((owner, terms))
        self.program = FactProgram(list(fact_index), isets, len(self.queries))

    def evaluate(self, page):
        """``(lines × queries)`` verdicts, row for row ``matches_tokens``."""
        return self.program.evaluate(page)
