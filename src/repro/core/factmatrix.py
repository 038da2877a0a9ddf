"""Exact fact-matrix filter — the one filter stage of the numpy kernel.

The paper's token filter evaluates every registered query in the same
pass, so its throughput is flat in query count (Figure 14, Table 6). A
:class:`FactProgram` is the host counterpart: all queries of a pass, all
lines of a page (or of the scan kernel's run of pages), one fixed
sequence of array operations.

A program is a table of distinct ``(token, column)`` **facts** ("the
line contains ``token``", or "its token at position ``column`` is
``token``") plus a signed fact→intersection-set matrix (+1 positive
term, −1 negative) with each set's *need* (its positive facts) and a
set→query ownership matrix. Offloaded programs build one from the cuckoo
table (:meth:`repro.core.hashfilter.CompiledQuery.fact_program`),
software-fallback programs from the query algebra
(:class:`repro.core.softmatch.SoftwareBatchMatcher`).

Per page: (1) a first-byte and a length look-up drop every token no
term could equal, and a page with no survivor gets the default verdict
row at once; (2) survivors are located (line, position in line:
:meth:`~repro.core.vectokenizer.PageTokens.locate`), hashed over their
bytes and ``searchsorted`` into the sorted term hashes; (3) every routed
``(token, fact)`` pair is compared byte for byte and column for column;
(4) verified pairs scatter into a ``(lines × facts)`` matrix ``F``, a
set is satisfied where ``F @ signed`` equals its need, and a query
keeps a line where it owns a satisfied set (both products in blocks of
:data:`_BLOCK_ROWS` lines). **Hashing routes, bytes decide**: a
collision costs one more comparison, never a verdict. Per-program state
is O(term bytes × intersection sets) — the scan executor keeps up to 128
programs alive. ``docs/PERFORMANCE.md`` has the measurements.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.backend import BackendUnavailableError, numpy_or_none

__all__ = ["FactProgram"]

#: Odd, so its powers never collapse to zero modulo 2**64.
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15

#: Lines per matrix product, so that a multi-page run's products stay as
#: small as one page's: larger ones can be handed to OpenBLAS's thread
#: pool, which on a 2-core host has made a 16-query pass cost more than
#: twice a one-query pass (``docs/PERFORMANCE.md``, "Page runs").
_BLOCK_ROWS = 128


def _ragged(np, counts):
    """Layout of a ragged array holding ``counts[i]`` items in row ``i``.

    Returns ``(position of each item within its row, first item of each
    row)``; ``x.repeat(counts)`` spreads a per-row value over the items.
    """
    ends = counts.cumsum()
    starts = ends - counts
    within = np.arange(ends[-1] if ends.size else 0)
    within -= starts.repeat(counts)  # in place: these arrays are per byte
    return within, starts


def _gather(source, starts, lengths, within):
    """The bytes of every ragged row: ``lengths[i]`` from ``starts[i]``."""
    index = starts.repeat(lengths)
    index += within
    return source.take(index)


def _route_hash(np, values, within, starts, powers):
    """Polynomial ``uint64`` hash of every (non-empty) ragged row: routes only."""
    terms = powers.take(within)
    terms *= values
    return np.add.reduceat(terms, starts)


class FactProgram:
    """Distinct facts plus the matrices that turn them into verdicts.

    ``facts`` are distinct ``(token, column)`` pairs with non-empty
    tokens (what :class:`repro.core.query.Term` guarantees); ``isets``
    holds one ``(owning query, [(fact index, negative), ...])`` per
    intersection set.
    """

    def __init__(
        self,
        facts: Sequence[tuple[bytes, Optional[int]]],
        isets: Sequence[tuple[int, Sequence[tuple[int, bool]]]],
        num_queries: int,
    ) -> None:
        np = numpy_or_none()
        if np is None:
            raise BackendUnavailableError("the fact-matrix filter needs numpy")
        self.num_facts = len(facts)
        self.num_queries = num_queries
        positive = np.zeros((len(facts), len(isets)), dtype=bool)
        negative = np.zeros_like(positive)
        owners = np.zeros((len(isets), num_queries), dtype=np.float32)
        for k, (owner, terms) in enumerate(isets):
            owners[k, owner] = 1
            for fact, is_negative in terms:
                (negative if is_negative else positive)[fact, k] = True
        self._owners = owners
        #: distinct positive facts each set needs; a fact that is also
        #: negative in the same set nets 0 below, so a contradictory set
        #: can never reach its need
        self._need = positive.sum(axis=0, dtype=np.float32)
        self._signed = positive.astype(np.float32) - negative
        #: verdict row (``1 × queries``) of a line on which no fact holds
        self._default = ((self._need == 0).astype(np.float32)[None, :] @ owners) > 0

        lengths = np.array([len(token) for token, _ in facts], dtype=np.int64)
        blob = np.frombuffer(b"".join(token for token, _ in facts), dtype=np.uint8)
        within, starts = _ragged(np, lengths)
        longest = int(lengths.max(initial=0))
        self._powers = np.cumprod(np.full(longest, _HASH_MULTIPLIER, dtype=np.uint64))
        hashes = _route_hash(np, blob, within, starts, self._powers)
        order = np.argsort(hashes, kind="stable")
        self._hashes = hashes[order]
        # the routing table: one row per fact, sorted by hash
        self._fact = order
        self._starts = starts[order]
        self._lengths = lengths[order]
        columns = [-1 if column is None else column for _, column in facts]
        self._columns = np.array(columns, dtype=np.int64)[order]
        self._blob = blob
        self._first_ok = np.zeros(256, dtype=bool)
        self._first_ok[blob[starts]] = True
        #: indexed by length, clipped to the last entry, which stays False
        self._length_ok = np.zeros(longest + 2, dtype=bool)
        self._length_ok[lengths] = True

    def evaluate(self, page):
        """``(lines × queries)`` boolean verdicts of one page or run.

        Row ``i`` is exactly ``tuple(q.matches_tokens(tokens_i) for q in
        queries)``, for any bytes (pinned by the differential suite). The
        products run in blocks of at most :data:`_BLOCK_ROWS` lines.
        """
        np = numpy_or_none()
        hits = self._hits(np, page)
        if hits is None:
            return self._default.repeat(page.num_lines, axis=0)
        truth = np.zeros((page.num_lines, self.num_facts), dtype=np.float32)
        truth[hits] = 1
        verdicts = np.empty((page.num_lines, self.num_queries), dtype=bool)
        for start in range(0, page.num_lines, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            satisfied = (truth[rows] @ self._signed) == self._need
            np.greater(satisfied.astype(np.float32) @ self._owners, 0, out=verdicts[rows])
        return verdicts

    def _hits(self, np, page):
        """``(line, fact)`` index arrays of every fact that holds, or ``None``."""
        if page.num_tokens == 0:
            return None
        buffer = np.frombuffer(page.buffer, dtype=np.uint8)
        starts = page.token_starts
        lengths = page.token_ends - starts
        survivors = (  # ``take`` beats indexing here: uint8 indices, and it clips
            self._first_ok.take(buffer.take(starts))
            & self._length_ok.take(lengths, mode="clip")
        ).nonzero()[0]
        if survivors.size == 0:
            return None
        starts = starts[survivors]
        lengths = lengths[survivors]
        lines, positions = page.locate(survivors)
        within, offsets = _ragged(np, lengths)
        hashes = _route_hash(
            np, _gather(buffer, starts, lengths, within), within, offsets, self._powers
        )
        low = self._hashes.searchsorted(hashes, side="left")
        runs = self._hashes.searchsorted(hashes, side="right") - low
        # every (survivor, equal-hash fact) pair — facts sharing a token
        # (two columns) share a hash; length and column are compared
        # here, the bytes below
        token = np.arange(runs.size).repeat(runs)
        fact = low.repeat(runs) + _ragged(np, runs)[0]
        column = self._columns[fact]
        keep = (lengths[token] == self._lengths[fact]) & (
            (column < 0) | (column == positions[token])
        )
        token, fact = token[keep], fact[keep]
        if token.size == 0:
            return None
        lengths = lengths[token]
        within, offsets = _ragged(np, lengths)
        same = _gather(buffer, starts[token], lengths, within) == _gather(
            self._blob, self._starts[fact], lengths, within
        )
        exact = np.logical_and.reduceat(same, offsets)
        token, fact = token[exact], fact[exact]
        if token.size == 0:
            return None
        return lines[token], self._fact[fact]
