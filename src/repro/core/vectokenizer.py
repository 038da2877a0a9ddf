"""Offset-array page tokenizer — the vectorized scan path's front end.

:func:`repro.core.tokenizer.tokenize_page` materialises one ``bytes``
object per token — millions of small allocations per scan. This module
produces the same information as flat **offset arrays** over the
decompressed buffer instead: line spans and token spans. Nothing is
copied out of the buffer until a token is actually needed as ``bytes``
(a hash-filter candidate) or a line is actually kept, and a token's line
and in-line position are computed only for the tokens that ask
(:meth:`PageTokens.lines_of`: the filter's routed tokens;
:meth:`PageTokens.positions`: those routed to a fact with a column).

The arrays come from numpy: a token-byte mask (one ``bytes.translate``),
token boundaries from the edges of that mask, line spans from terminator
positions in an ``np.frombuffer`` view of the buffer. The buffer is
one page or, in the scan kernel, a run of consecutive pages joined so
that each page's lines follow the last one's.

Line semantics are ``bytes.splitlines``: ``\\n``, ``\\r`` and ``\\r\\n``
each end a line. Stored text is ``\\n``-terminated, so the ``\\r`` ends
and the ``\\r\\n`` merge are folded in only for a buffer that carries
``\\r`` at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.backend import BackendUnavailableError, numpy_or_none

__all__ = ["PageTokens", "tokenize_page_offsets"]

_NL, _CR = 0x0A, 0x0D

#: ``bytes.translate`` table: 1 for a byte that belongs to a token, 0 for
#: a delimiter (space, tab) or a line terminator (``\\n``, ``\\r``).
_TOKEN_BYTES = bytes(0 if byte in (0x20, 0x09, _NL, _CR) else 1 for byte in range(256))


@dataclass
class PageTokens:
    """One buffer's lines and tokens as flat offset arrays.

    All offsets index ``buffer``. ``line_starts[i]:line_ends[i]`` is the
    *raw* line (tabs preserved, no terminator) — slicing it yields
    exactly ``buffer.splitlines()[i]``. ``token_starts[j]:token_ends[j]``
    is one token, in buffer order; :meth:`lines_of` gives a token's line
    and :meth:`positions` its position within that line (the value the
    hash filter checks column constraints against).

    Arrays are numpy ``int64``.
    """

    buffer: "bytes | memoryview"
    line_starts: Sequence[int]
    line_ends: Sequence[int]
    token_starts: Sequence[int]
    token_ends: Sequence[int]

    @property
    def num_lines(self) -> int:
        return len(self.line_starts)

    @property
    def num_tokens(self) -> int:
        return len(self.token_starts)

    def lines_of(self, tokens):
        """Line index of each of the token indices ``tokens``: one
        ``searchsorted`` against the line ends."""
        return self.line_ends.searchsorted(self.token_starts[tokens])

    def positions(self, tokens, lines):
        """Position in its line of each token ``tokens[i]``, given its line
        ``lines[i]`` (:meth:`lines_of`): one ``searchsorted`` against the
        lines' first tokens."""
        return tokens - self.token_starts.searchsorted(self.line_starts[lines])

    def line_bytes(self, i: int) -> bytes:
        """Raw bytes of line ``i`` (terminator stripped, tabs intact)."""
        return bytes(self.buffer[int(self.line_starts[i]) : int(self.line_ends[i])])

    def token_bytes(self, j: int) -> bytes:
        return bytes(
            self.buffer[int(self.token_starts[j]) : int(self.token_ends[j])]
        )

    def to_token_lists(self) -> tuple[List[bytes], List[List[bytes]]]:
        """Re-materialise ``(raw_lines, token_lists)``.

        The exact structure :func:`repro.core.tokenizer.tokenize_page`
        returns — the bridge the differential suite equates the two
        representations over. Not a hot path.
        """
        np = numpy_or_none()
        raw_lines = [self.line_bytes(i) for i in range(self.num_lines)]
        token_lists: List[List[bytes]] = [[] for _ in range(self.num_lines)]
        for j, line in enumerate(self.lines_of(np.arange(self.num_tokens)).tolist()):
            token_lists[line].append(self.token_bytes(j))
        return raw_lines, token_lists


def tokenize_page_offsets(
    payload: "bytes | bytearray | memoryview",
) -> PageTokens:
    """Tokenize one decompressed page (or run of pages) into offset arrays.

    ``payload`` is read zero-copy and the result holds a reference to
    it, not a copy.
    """
    np = numpy_or_none()
    if np is None:
        raise BackendUnavailableError(
            "the offset-array tokenizer needs numpy; use "
            "repro.core.tokenizer.tokenize_page"
        )
    arr = np.frombuffer(payload, dtype=np.uint8)
    n = arr.size
    # stored text has no \r: one C-level search (bytes() copies only a
    # memoryview) keeps the \r ends and the \r\n merge off its path
    if b"\r" in bytes(payload):
        ends = np.flatnonzero((arr == _NL) | (arr == _CR))
        # a \n right after a \r is the tail of one \r\n terminator: it
        # ends no line, and the line after it starts past it
        tail = (arr[ends[1:]] == _NL) & (arr[ends[1:] - 1] == _CR)
        line_ends = ends[np.append(True, ~tail)]
        next_starts = ends[np.append(~tail, True)] + 1
    else:
        line_ends = np.flatnonzero(arr == _NL)
        next_starts = line_ends + 1
    # an unterminated tail is one more line (splitlines yields no
    # trailing empty line)
    if n and payload[-1] not in (_NL, _CR):
        line_ends = np.append(line_ends, n)
    # a line starts after the previous line's terminator (no lines, no starts)
    line_starts = np.concatenate(([0], next_starts))[: line_ends.size]
    # token edges: where the token-byte mask, padded with a delimiter on
    # either side, changes — starts and (exclusive) ends alternate. The
    # mask is one C-level translate, a byte per byte.
    padded = np.frombuffer((b" " + payload + b" ").translate(_TOKEN_BYTES), dtype=bool)
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return PageTokens(
        buffer=payload,
        line_starts=line_starts,
        line_ends=line_ends,
        token_starts=edges[0::2],
        token_ends=edges[1::2],
    )
