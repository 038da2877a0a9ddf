"""Hash filter: bitmap-based query evaluation (Section 4.2.3, Figure 6).

A query — or several queries joined by union — is compiled into a
:class:`CompiledQuery`: a cuckoo table whose flag pairs encode each
intersection set, one *query bitmap* per intersection set (bits of the
rows holding that set's positive terms), and a map from intersection set
to owning query so concurrent queries get separate verdicts.

Per line, the filter keeps one live bitmap and one violation flag per
intersection set. Each token is looked up; on a match, valid+negative
flags mark the set violated, valid+positive flags set the matched row's
bit. At end of line a set is satisfied iff it is not violated and its
bitmap equals the query bitmap exactly; a line is kept for a query iff
any of that query's sets is satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.core.cuckoo import CuckooHashTable
from repro.core.factmatrix import FactProgram
from repro.core.query import Query
from repro.core.tokenizer import TokenWord, reassemble_tokens
from repro.errors import CapacityError, PlacementError
from repro.params import CuckooParams

#: Sentinel distinguishing "not yet cached" from a cached table miss
#: (``None``) in the batch kernel's effect-cache probe.
_UNCACHED = object()


@dataclass(frozen=True)
class CompiledQuery:
    """A union of queries encoded for the hardware filter."""

    table: CuckooHashTable
    query_bitmaps: tuple[int, ...]
    iset_to_query: tuple[int, ...]
    num_queries: int

    def __post_init__(self) -> None:
        # the table is immutable once compiled, so lookups are cacheable;
        # log corpora repeat tokens heavily, making this cache very hot
        object.__setattr__(self, "_lookup_cache", {})
        object.__setattr__(self, "_effect_cache", {})

    def cached_lookup(self, token: bytes):
        cache = self._lookup_cache
        try:
            return cache[token]
        except KeyError:
            result = self.table.lookup(token)
            if len(cache) < 1 << 16:
                cache[token] = result
            return result

    def token_effect(
        self, token: bytes
    ) -> Optional[tuple[int, tuple[tuple[int, int], ...], Optional[int]]]:
        """The filter-state update one token triggers, fully precomputed.

        ``None`` for tokens outside the table (the overwhelmingly common
        case). Otherwise ``(violate_mask, bit_updates, column)``: a
        bitmask over intersection sets this token violates, the
        ``(iset_index, row_bit)`` pairs it satisfies, and the positional
        constraint (``None`` when unconstrained). This flattens the
        per-token flag-pair loop of :meth:`LineEvaluator.feed` into data
        the batch kernel consumes with one dict probe per token.
        """
        cache = self._effect_cache
        try:
            return cache[token]
        except KeyError:
            hit = self.cached_lookup(token)
            if hit is None:
                effect = None
            else:
                row, entry = hit
                violate_mask = 0
                bit_updates = []
                for iset_index, pair in enumerate(entry.flags):
                    if not pair.valid:
                        continue
                    if pair.negative:
                        violate_mask |= 1 << iset_index
                    else:
                        bit_updates.append((iset_index, 1 << row))
                effect = (violate_mask, tuple(bit_updates), entry.column)
            if len(cache) < 1 << 16:
                cache[token] = effect
            return effect

    def fact_program(self):
        """This program as a :class:`repro.core.factmatrix.FactProgram`.

        One fact per table entry, one set per flag-pair column: "every
        positive fact holds and no negative one" is "bitmap equals the
        query bitmap and no violation". Cached — the table is immutable.
        """
        cached = getattr(self, "_fact_program", None)
        if cached is None:
            entries = [entry for _row, entry in self.table.entries()]
            isets = [
                (q, [(f, e.flags[k].negative) for f, e in enumerate(entries) if e.flags[k].valid])
                for k, q in enumerate(self.iset_to_query)
            ]
            cached = FactProgram(
                [(e.token, e.column) for e in entries], isets, self.num_queries
            )
            object.__setattr__(self, "_fact_program", cached)
        return cached

    @property
    def num_isets(self) -> int:
        return len(self.query_bitmaps)

    def describe(self) -> str:
        return (
            f"CompiledQuery({self.num_queries} queries, {self.num_isets} "
            f"intersection sets, {self.table.occupied} tokens, load factor "
            f"{self.table.load_factor:.2f})"
        )


def compile_queries(
    queries: Sequence[Query],
    params: Optional[CuckooParams] = None,
    seed: int = 0,
) -> CompiledQuery:
    """Encode one or more queries into a single cuckoo table.

    Multiple queries execute concurrently by joining their intersection
    sets with unions (Section 4); the per-set ownership map keeps their
    verdicts separate. Raises :class:`repro.errors.CapacityError` when the
    combined intersection sets exceed the provisioned flag pairs, and
    :class:`repro.errors.PlacementError` when cuckoo placement fails.
    """
    params = params if params is not None else CuckooParams()
    total_isets = sum(len(q.intersections) for q in queries)
    if total_isets == 0:
        raise CapacityError("no intersection sets to compile")
    if total_isets > params.flag_pairs:
        raise CapacityError(
            f"{total_isets} intersection sets exceed the {params.flag_pairs} "
            "provisioned flag pairs"
        )
    table = CuckooHashTable(params=params, seed=seed)
    iset_to_query: list[int] = []
    k = 0
    for q_index, query in enumerate(queries):
        for iset in query.intersections:
            for term in iset.terms:
                table.add_term(
                    term.token, k, negative=term.negative, column=term.column
                )
            iset_to_query.append(q_index)
            k += 1
    bitmaps = [0] * total_isets
    for row, entry in table.entries():
        for iset_index, pair in enumerate(entry.flags):
            if pair.valid and not pair.negative:
                bitmaps[iset_index] |= 1 << row
    return CompiledQuery(
        table=table,
        query_bitmaps=tuple(bitmaps),
        iset_to_query=tuple(iset_to_query),
        num_queries=len(queries),
    )


#: Entries a per-process memo may hold; the least recently used is
#: evicted. A compiled program carries a cuckoo table plus two token
#: caches, and the service mints a new query tuple for every distinct
#: pass, so an unbounded memo grows for as long as the process lives.
MEMO_ENTRIES = 128

#: Compiled programs by ``(queries, params, seed)``; successes only.
_PROGRAM_MEMO: dict = {}


def memoized(memo: dict, key, build):
    """``memo[key]``, built on a miss; holds at most :data:`MEMO_ENTRIES`.

    A hit moves the entry to the young end, so the program asked for on
    every flush outlives any number of one-off keys.
    """
    value = memo.pop(key, None)
    if value is None:
        value = build()
        if len(memo) >= MEMO_ENTRIES:
            del memo[next(iter(memo))]  # dicts iterate oldest-first
    memo[key] = value
    return value


def compiled_program(
    queries: Sequence[Query],
    params: Optional[CuckooParams] = None,
    seed: int = 0,
) -> CompiledQuery:
    """:func:`compile_queries`, once per process and key.

    Query traffic is a few templates repeated, and one pass asks for its
    program several times (the scheduler's probe, the engine, the scan
    kernel): they all get the same :class:`CompiledQuery`, whose token
    caches are pure memos of an immutable table. A program that does not
    place is not remembered; it raises again on the next call.
    """
    params = params if params is not None else CuckooParams()
    queries = tuple(queries)
    return memoized(
        _PROGRAM_MEMO,
        (queries, params, seed),
        lambda: compile_queries(queries, params=params, seed=seed),
    )


def fits(
    queries: Sequence[Query],
    params: Optional[CuckooParams] = None,
    seed: int = 0,
) -> bool:
    """The compile probe: does the combined program still place?

    Covers both the flag-pair budget and cuckoo placement limits; a
    program that fits is the one the pass will run.
    """
    try:
        compiled_program(queries, params, seed)
    except (CapacityError, PlacementError):
        return False
    return True


def pack(
    queries: Sequence[Query],
    params: Optional[CuckooParams] = None,
    seed: int = 0,
) -> list[tuple[int, ...]]:
    """Greedy first-fit grouping under the :func:`fits` probe.

    Each group (indices into ``queries``, ascending) is one accelerator
    pass: a query joins the first group whose combined program still
    places, else it opens a new one. A query that cannot compile even
    alone stays a group of one, which the engine runs in software.
    """
    groups: list[list[int]] = []
    for index, query in enumerate(queries):
        for group in groups:
            if fits([queries[i] for i in group] + [query], params, seed):
                group.append(index)
                break
        else:
            groups.append([index])
    return [tuple(group) for group in groups]


class LineEvaluator:
    """Per-line filter state: N live bitmaps plus N violation flags."""

    __slots__ = ("program", "bitmaps", "violated")

    def __init__(self, program: CompiledQuery) -> None:
        self.program = program
        self.bitmaps = [0] * program.num_isets
        self.violated = [False] * program.num_isets

    def feed(self, token: bytes, position: int) -> None:
        """Process one token at line position ``position``."""
        hit = self.program.cached_lookup(token)
        if hit is None:
            return
        row, entry = hit
        if entry.column is not None and position != entry.column:
            return
        for iset_index, pair in enumerate(entry.flags):
            if not pair.valid:
                continue
            if pair.negative:
                self.violated[iset_index] = True
            else:
                self.bitmaps[iset_index] |= 1 << row

    def iset_verdicts(self) -> list[bool]:
        """Satisfaction of each intersection set at end of line."""
        return [
            not self.violated[k] and self.bitmaps[k] == self.program.query_bitmaps[k]
            for k in range(self.program.num_isets)
        ]

    def query_verdicts(self) -> tuple[bool, ...]:
        """Keep/drop per concurrent query: OR over its intersection sets."""
        verdicts = [False] * self.program.num_queries
        for k, satisfied in enumerate(self.iset_verdicts()):
            if satisfied:
                verdicts[self.program.iset_to_query[k]] = True
        return tuple(verdicts)


class HashFilter:
    """Evaluates token-word streams against a compiled query.

    This is the gather side of a pipeline: it consumes the aligned
    :class:`repro.core.tokenizer.TokenWord` stream (reassembling multi-word
    tokens through the overflow path) and emits one verdict tuple per line.
    """

    def __init__(self, program: CompiledQuery) -> None:
        self.program = program
        self.lines_processed = 0
        self.tokens_processed = 0

    def evaluate_words(self, words: Iterable[TokenWord]) -> tuple[bool, ...]:
        """Evaluate one line's word stream; returns per-query verdicts."""
        evaluator = LineEvaluator(self.program)
        position = 0
        for token, _last in reassemble_tokens(iter(words)):
            if token:  # the all-zero word of a token-less line carries nothing
                evaluator.feed(token, position)
                self.tokens_processed += 1
            position += 1
        self.lines_processed += 1
        return evaluator.query_verdicts()

    def evaluate_token_lists(
        self, token_lists: Sequence[Sequence[bytes]]
    ) -> list[tuple[bool, ...]]:
        """Batch kernel: one verdict tuple per pre-split line.

        Semantically identical to feeding each line's tokens through a
        :class:`LineEvaluator` (the equivalence suite pins this down), but
        without per-line evaluator objects or per-token method dispatch:
        filter state is two integers-and-a-list per line, token effects
        come precomputed from :meth:`CompiledQuery.token_effect`, and all
        loop-invariant lookups are bound to locals once per batch. A
        one-line batch is the software path's per-line form
        (``core/tagger.py``).
        """
        program = self.program
        effect_cache = program._effect_cache
        token_effect = program.token_effect
        query_bitmaps = program.query_bitmaps
        iset_to_query = program.iset_to_query
        num_isets = program.num_isets
        num_queries = program.num_queries
        zero_bitmaps = [0] * num_isets
        verdicts: list[tuple[bool, ...]] = []
        tokens_seen = 0
        for tokens in token_lists:
            tokens_seen += len(tokens)
            violated = 0
            bitmaps = zero_bitmaps[:]
            for position, token in enumerate(tokens):
                effect = effect_cache.get(token, _UNCACHED)
                if effect is _UNCACHED:
                    effect = token_effect(token)
                if effect is None:
                    continue
                violate_mask, bit_updates, column = effect
                if column is not None and position != column:
                    continue
                violated |= violate_mask
                for iset_index, bit in bit_updates:
                    bitmaps[iset_index] |= bit
            line_verdict = [False] * num_queries
            for k in range(num_isets):
                if not (violated >> k) & 1 and bitmaps[k] == query_bitmaps[k]:
                    line_verdict[iset_to_query[k]] = True
            verdicts.append(tuple(line_verdict))
        self.lines_processed += len(verdicts)
        self.tokens_processed += tokens_seen
        return verdicts

    def evaluate_token_arrays(self, page):
        """Array kernel: one page's ``(lines × queries)`` boolean verdicts.

        Consumes a :class:`repro.core.vectokenizer.PageTokens`; row ``i``
        is the tuple :meth:`evaluate_token_lists` returns for line ``i``
        (the differential suite pins this down), computed by the
        program's :class:`~repro.core.factmatrix.FactProgram`.
        """
        self.lines_processed += page.num_lines
        self.tokens_processed += page.num_tokens
        return self.program.fact_program().evaluate(page)
