"""Batch software-fallback matcher — vectorized ``Query`` semantics.

A query program that exceeds the engine's hardware provisioning (too
many intersection sets for the flag pairs, tokens that will not place in
the cuckoo table) runs in *software*: no compiled table exists, and the
reference scan path evaluates :meth:`repro.core.query.Query
.matches_tokens` per line — a Python-level loop over every token of
every line for every query. That is exactly the representation problem
the vectorized scan path exists to fix, and batched multi-query scans
are where it hurts most (they are also the scans most likely to exceed
provisioning).

:class:`SoftwareBatchMatcher` evaluates the same semantics over one
page's offset arrays (:class:`repro.core.vectokenizer.PageTokens`).
Query algebra reduces to boolean operations over per-line *facts*, one
per distinct ``(token, column)`` term:

- anywhere-fact ``(t, None)`` — line contains token ``t``;
- column-fact ``(t, c)`` — the line's token at position ``c`` is ``t``.

Each fact becomes a boolean line-vector built from a handful of numpy
array comparisons (length mask, then one byte-compare per token byte),
and every query's verdict vector is an OR of ANDs over those fact
vectors — no per-line Python at all.

The matcher is deliberately counter-free: the reference software path
touches no :class:`~repro.core.hashfilter.HashFilter` counters, so
neither does this one, and the differential suite pins its verdicts
byte-for-byte against ``matches_tokens``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.backend import numpy_or_none
from repro.core.query import Query

__all__ = ["SoftwareBatchMatcher"]


class SoftwareBatchMatcher:
    """Evaluates a tuple of queries per line over ``PageTokens`` arrays."""

    def __init__(self, queries: Sequence[Query]) -> None:
        self.queries = tuple(queries)
        fact_index: Dict[Tuple[bytes, Optional[int]], int] = {}
        structure = []
        for query in self.queries:
            isets = []
            for iset in query.intersections:
                terms = []
                for term in iset.terms:
                    key = (term.token, term.column)
                    index = fact_index.setdefault(key, len(fact_index))
                    terms.append((index, term.negative))
                isets.append(tuple(terms))
            structure.append(tuple(isets))
        #: Per query: tuple of intersection sets, each a tuple of
        #: ``(fact_index, negative)`` pairs.
        self.structure = tuple(structure)
        self.num_facts = len(fact_index)
        #: Verdict of a line where every fact is false (no term token
        #: present) — an intersection set matches it iff fully negated.
        self.default_verdict = tuple(
            any(all(negative for _, negative in terms) for terms in isets)
            for isets in self.structure
        )
        #: token -> [(fact_index, column)] for every distinct term token.
        self.token_facts: Dict[bytes, List[Tuple[int, Optional[int]]]] = {}
        for (token, column), index in fact_index.items():
            self.token_facts.setdefault(token, []).append((index, column))

    # -- evaluation --------------------------------------------------------

    def evaluate(self, page) -> list[tuple[bool, ...]]:
        """One verdict tuple per line, identical to ``matches_tokens``."""
        num_lines = page.num_lines
        if num_lines == 0:
            return []
        if self.num_facts == 0 or page.num_tokens == 0:
            return [self.default_verdict] * num_lines
        np = numpy_or_none()
        arr = np.frombuffer(page.buffer, dtype=np.uint8)
        token_starts = page.token_starts
        lengths = page.token_ends - token_starts
        token_lines = page.token_lines
        token_positions = page.token_positions
        fact_true = np.zeros((self.num_facts, num_lines), dtype=bool)
        for token, fact_list in self.token_facts.items():
            length = len(token)
            if length == 0:  # page tokens are non-empty: never matches
                continue
            sel = np.flatnonzero(lengths == length)
            if sel.size == 0:
                continue
            starts = token_starts[sel]
            ok = arr[starts] == token[0]
            for k in range(1, length):
                ok &= arr[starts + k] == token[k]
            matched = sel[ok]
            if matched.size == 0:
                continue
            for index, column in fact_list:
                if column is None:
                    fact_true[index, token_lines[matched]] = True
                else:
                    at_column = matched[token_positions[matched] == column]
                    if at_column.size:
                        fact_true[index, token_lines[at_column]] = True
        columns = []
        for isets in self.structure:
            query_vector = np.zeros(num_lines, dtype=bool)
            for terms in isets:
                iset_vector = np.ones(num_lines, dtype=bool)
                for index, negative in terms:
                    if negative:
                        iset_vector &= ~fact_true[index]
                    else:
                        iset_vector &= fact_true[index]
                query_vector |= iset_vector
            columns.append(query_vector)
        matrix = np.stack(columns, axis=1)
        return list(map(tuple, matrix.tolist()))
