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

Per page: (1) a length look-up drops every token no fact could equal;
(2) each survivor's **word key**, its first 8 bytes as one little-endian
``uint64`` zeroed past its length (one gather per token, as the paper's
datapath takes fixed-width words), is ``searchsorted`` into the facts'
sorted keys; (3) a set is **reachable** when every one of its positive
facts' keys was routed (two ``(keys × sets)`` products), only tokens
whose key takes part in a reachable set go on, and a page with none
left gets the default verdict row at once; (4) every remaining ``(token,
fact)`` pair is placed on its line
(:meth:`~repro.core.vectokenizer.PageTokens.lines_of`; its position,
:meth:`~repro.core.vectokenizer.PageTokens.positions`, only where the
fact names a column) and checked for length, column and the bytes past
its key; (5) verified pairs scatter into a ``(lines × facts)`` matrix
``F``, a set is satisfied where ``F @ signed`` equals its need, and a
query keeps a line where it owns a satisfied set (both products in
blocks of :data:`_BLOCK_ROWS` lines). **Keys of up to 8 bytes decide,
longer facts are decided by their tail bytes**, and a set that is not
reachable cannot be satisfied on any line, so dropping the facts only
such sets use changes no verdict. Per-program state is O(term bytes ×
intersection sets) — the scan executor keeps up to 128 programs alive.
``docs/PERFORMANCE.md`` has the measurements.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.backend import BackendUnavailableError, numpy_or_none

__all__ = ["FactProgram"]

#: Bytes of a word key; a key read at a text's last byte needs 7 more.
_WORD = 8
_PAD = bytes(_WORD - 1)

#: Lines per matrix product, so that a multi-page run's products stay as
#: small as one page's: larger ones can be handed to OpenBLAS's thread
#: pool, which on a 2-core host has made a 16-query pass cost more than
#: twice a one-query pass (``docs/PERFORMANCE.md``, "Page runs").
_BLOCK_ROWS = 128


def _ragged(np, counts):
    """Position of each item within its row, for a ragged array holding
    ``counts[i]`` items in row ``i``; ``x.repeat(counts)`` spreads a
    per-row value over the items."""
    ends = counts.cumsum()
    within = np.arange(ends[-1] if ends.size else 0)
    within -= (ends - counts).repeat(counts)  # in place: these arrays are per byte
    return within


def _gather(source, starts, lengths, within):
    """The bytes of every ragged row: ``lengths[i]`` from ``starts[i]``."""
    index = starts.repeat(lengths)
    index += within
    return source.take(index)


def _word_keys(np, text, starts, lengths, masks):
    """Word key of every token ``text[starts[i]:][:lengths[i]]``: its first
    8 bytes as one little-endian ``uint64``, zero past its length.

    ``text`` ends in :data:`_PAD`; one unaligned view reads every key.
    """
    words = np.ndarray((len(text) - len(_PAD),), "<u8", buffer=text, strides=(1,))
    return words[starts] & masks.take(lengths, mode="clip")


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
        text = b"".join(token for token, _ in facts) + _PAD
        starts = lengths.cumsum() - lengths
        #: a key's byte mask, indexed by length and clipped to all 8 bytes
        self._masks = np.array([(1 << 8 * k) - 1 for k in range(_WORD + 1)], dtype=np.uint64)
        keys = _word_keys(np, text, starts, lengths, self._masks)
        order = np.argsort(keys, kind="stable")
        # the routing table: one row per fact, sorted by key, and each
        # distinct key's first row and number of rows
        self._keys, self._first, self._count = np.unique(
            keys[order], return_index=True, return_counts=True
        )
        self._fact = order
        #: ``(distinct keys × sets)``, summed over each key's rows: the
        #: positive facts a key carries into each set, and whether any fact
        #: of the set (either polarity) has the key
        positive, negative = positive[order], negative[order]
        self._key_positive = np.add.reduceat(positive, self._first, axis=0, dtype=np.float32)
        self._key_member = np.logical_or.reduceat(positive | negative, self._first, axis=0)
        self._starts = starts[order]
        self._lengths = lengths[order]
        columns = [-1 if column is None else column for _, column in facts]
        self._columns = np.array(columns, dtype=np.int64)[order]
        self._blob = np.frombuffer(text, dtype=np.uint8)
        #: indexed by length, clipped to the last entry, which stays False
        self._length_ok = np.zeros(int(lengths.max(initial=0)) + 2, dtype=bool)
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
        """``(line, fact)`` index arrays of every fact that can decide a
        verdict and holds, or ``None`` when no such fact was routed."""
        text = bytes(page.buffer) + _PAD
        starts = page.token_starts
        lengths = page.token_ends - starts
        survivors = self._length_ok.take(lengths, mode="clip").nonzero()[0]
        starts, lengths = starts[survivors], lengths[survivors]
        keys = _word_keys(np, text, starts, lengths, self._masks)
        at = self._keys.searchsorted(keys)
        hit = (self._keys.take(at, mode="clip") == keys).nonzero()[0]
        at = at[hit]
        # a set is reachable when every one of its positive facts' keys was
        # routed (a need-0 set always is); a set that is not cannot be
        # satisfied on any line, so the tokens whose key takes part in no
        # reachable set decide nothing
        seen = np.zeros(self._keys.size, dtype=np.float32)
        seen[at] = 1
        reachable = seen @ self._key_positive >= self._need
        useful = (self._key_member @ reachable).take(at).nonzero()[0]
        if useful.size == 0:
            return None
        # every (useful token, equal-key fact) pair: facts sharing a key
        # (one token under two columns, or tokens alike in their first 8
        # bytes) share a run of rows
        hit, at = hit[useful], at[useful]
        runs = self._count[at]
        token = hit.repeat(runs)
        fact = self._first[at].repeat(runs) + _ragged(np, runs)
        starts, lengths, token = starts[token], lengths[token], survivors[token]
        lines = page.lines_of(token)
        fact_lengths, column = self._lengths[fact], self._columns[fact]
        # bytes past the key, bounded by the shorter of the two so that
        # neither side reads past its token
        tail = np.minimum(lengths, fact_lengths) - _WORD
        np.maximum(tail, 0, out=tail)
        within = _ragged(np, tail)
        source = np.frombuffer(text, dtype=np.uint8)
        differ = _gather(source, starts + _WORD, tail, within) != _gather(
            self._blob, self._starts[fact] + _WORD, tail, within
        )
        keep = lengths == fact_lengths
        keep[np.arange(token.size).repeat(tail)[differ]] = False
        # in-line positions only for the pairs whose fact names a column
        asks = (column >= 0).nonzero()[0]
        keep[asks] &= page.positions(token[asks], lines[asks]) == column[asks]
        return lines[keep], self._fact[fact[keep]]
