"""Offset-array page tokenizer — the vectorized scan path's front end.

:func:`repro.core.tokenizer.tokenize_page` materialises one ``bytes``
object per token — millions of small allocations per scan. This module
produces the same information as flat **offset/length arrays** over the
decompressed page buffer instead: line spans, token spans, the line each
token belongs to, and its position within that line. Nothing is copied
out of the buffer until a token is actually needed as ``bytes`` (a hash
-filter candidate) or a line is actually kept.

The arrays come from numpy: boolean delimiter masks over an
``np.frombuffer`` view of the page (zero-copy), token boundaries from
mask edges, line membership from a ``searchsorted`` against newline
positions.

Line semantics follow ``bytes.splitlines`` on ``\\n``-terminated text
(what the ingest path stores). A page containing ``\\r`` needs the full
``\\r``/``\\n``/``\\r\\n`` terminator set, which only the reference
tokenizer implements: :func:`tokenize_page_offsets` probes every page
once (:func:`has_carriage_return`) and refuses such a page with
:class:`CarriageReturnPage` rather than mis-split it — the refusal the
scan kernel routes the page to the reference stages by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.backend import BackendUnavailableError, numpy_or_none

__all__ = ["CarriageReturnPage", "PageTokens", "has_carriage_return", "tokenize_page_offsets"]

_NL = 0x0A
_SPACE = 0x20
_TAB = 0x09


@dataclass
class PageTokens:
    """One page's lines and tokens as flat offset arrays.

    All offsets index ``buffer``. ``line_starts[i]:line_ends[i]`` is the
    *raw* line (tabs preserved, no terminator) — slicing it yields
    exactly ``buffer.splitlines()[i]``. ``token_starts[j]:token_ends[j]``
    is one token; ``token_lines[j]`` is its line index and
    ``token_positions[j]`` its position within that line (the value the
    hash filter checks column constraints against).

    Arrays are numpy ``int64``.
    """

    buffer: "bytes | memoryview"
    line_starts: Sequence[int]
    line_ends: Sequence[int]
    token_starts: Sequence[int]
    token_ends: Sequence[int]
    token_lines: Sequence[int]
    token_positions: Sequence[int]

    @property
    def num_lines(self) -> int:
        return len(self.line_starts)

    @property
    def num_tokens(self) -> int:
        return len(self.token_starts)

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
        raw_lines = [self.line_bytes(i) for i in range(self.num_lines)]
        token_lists: List[List[bytes]] = [[] for _ in range(self.num_lines)]
        for j in range(self.num_tokens):
            token_lists[int(self.token_lines[j])].append(self.token_bytes(j))
        return raw_lines, token_lists


class CarriageReturnPage(ValueError):
    """The page carries ``\\r``: only the reference tokenizer splits it."""


def has_carriage_return(payload: "bytes | bytearray | memoryview") -> bool:
    """Whether the page carries ``\\r`` and so needs the reference tokenizer."""
    # one memcpy plus a C-level search: ~20x cheaper than a numpy compare
    return b"\r" in bytes(payload)


def tokenize_page_offsets(
    payload: "bytes | bytearray | memoryview",
) -> PageTokens:
    """Tokenize one decompressed page into offset arrays.

    ``payload`` is read zero-copy and the result holds a reference to
    it, not a copy. Raises :class:`CarriageReturnPage` (a
    ``ValueError``) for a page containing ``\\r``.
    """
    np = numpy_or_none()
    if np is None:
        raise BackendUnavailableError(
            "the offset-array tokenizer needs numpy; use "
            "repro.core.tokenizer.tokenize_page"
        )
    if has_carriage_return(payload):
        raise CarriageReturnPage(
            "page contains \\r; the offset-array tokenizer splits lines on "
            "\\n only — use repro.core.tokenizer.tokenize_page"
        )
    arr = np.frombuffer(payload, dtype=np.uint8)
    n = arr.size
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return PageTokens(
            buffer=payload,
            line_starts=empty, line_ends=empty,
            token_starts=empty, token_ends=empty,
            token_lines=empty, token_positions=empty,
        )
    is_nl = arr == _NL
    nl_pos = np.flatnonzero(is_nl)
    line_starts = np.concatenate((np.zeros(1, dtype=np.int64), nl_pos + 1))
    line_ends = np.concatenate((nl_pos, np.array([n], dtype=np.int64)))
    if line_starts[-1] == n:  # splitlines yields no trailing empty line
        line_starts = line_starts[:-1]
        line_ends = line_ends[:-1]

    tok = ~(is_nl | (arr == _SPACE) | (arr == _TAB))
    if not bool(tok.any()):
        return PageTokens(
            buffer=payload,
            line_starts=line_starts, line_ends=line_ends,
            token_starts=empty, token_ends=empty,
            token_lines=empty, token_positions=empty,
        )
    prev = np.empty_like(tok)
    prev[0] = False
    prev[1:] = tok[:-1]
    nxt = np.empty_like(tok)
    nxt[-1] = False
    nxt[:-1] = tok[1:]
    token_starts = np.flatnonzero(tok & ~prev)
    token_ends = np.flatnonzero(tok & ~nxt) + 1
    # tokens contain no newline byte, so a token's line index is simply
    # how many newlines precede it
    token_lines = np.searchsorted(nl_pos, token_starts, side="left")
    line_change = np.empty(token_lines.shape, dtype=bool)
    line_change[0] = True
    line_change[1:] = token_lines[1:] != token_lines[:-1]
    first_of_line = np.flatnonzero(line_change)
    group = np.cumsum(line_change) - 1
    token_positions = np.arange(token_lines.size, dtype=np.int64) - first_of_line[group]
    return PageTokens(
        buffer=payload,
        line_starts=line_starts, line_ends=line_ends,
        token_starts=token_starts.astype(np.int64, copy=False),
        token_ends=token_ends.astype(np.int64, copy=False),
        token_lines=token_lines.astype(np.int64, copy=False),
        token_positions=token_positions,
    )
