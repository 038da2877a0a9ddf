"""Hardware tokenizer model (Section 4.1, Figure 4).

Each tokenizer ingests one log line, two bytes per cycle, and emits a
stream of datapath-aligned token words. A token longer than the datapath
width spans several words; each emitted word carries two flags:

- ``last_of_token`` — this word completes the current token,
- ``last_of_line`` — this word completes the line (set on the final word
  of the final token).

Words shorter than the datapath are zero-padded, which is the data
amplification Figure 13 measures. Tokens are maximal runs of
non-delimiter bytes; the delimiter set is space and tab (punctuation
stays attached to its token, matching the paper's examples such as
``pbs_mom:``).

The module-level :func:`split_tokens` is the single source of truth for
token boundaries within a line; the query oracle, the performance model
and this hardware model all share it, so they cannot disagree about what
a token is. :func:`tokenize_page` and :func:`page_token_set` apply the
same boundaries to a whole stored page, for the scan path and for the
inverted index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.errors import IngestError
from repro.params import DATAPATH_BYTES

#: Token delimiters: space and horizontal tab.
DELIMITERS = b" \t"

_DELIM_SET = frozenset(DELIMITERS)

#: Precomputed 256-entry delimiter table: maps tab onto space so one
#: C-level ``bytes.translate`` collapses the delimiter set to a single
#: split byte. Extending ``DELIMITERS`` only requires extending this map.
_DELIM_TRANSLATE = bytes.maketrans(b"\t", b" ")

#: The same map with the line terminators of ``bytes.splitlines`` folded
#: in: over a whole page, a token ends at a delimiter *or* a line end.
_PAGE_TRANSLATE = bytes.maketrans(b"\t\n\r", b"   ")


def split_tokens(line: bytes) -> List[bytes]:
    """Split a log line into tokens on the delimiter set.

    Runs of delimiters produce no empty tokens. The trailing newline, if
    present, is not part of any token.

    This is the hot-path kernel: everything that works line by line (query
    oracle, performance model, hardware model) funnels every line through
    it, so it stays on C-level bytes primitives — ``rstrip`` /
    ``translate`` with the precomputed delimiter table / ``split`` — and
    skips the translate copy when the line carries no tab at all.
    :func:`split_tokens_reference` is the byte-at-a-time specification it
    is tested against.
    """
    if not line:
        return []
    body = line.rstrip(b"\n")
    if b"\t" in body:
        body = body.translate(_DELIM_TRANSLATE)
    return [token for token in body.split(b" ") if token]


def stored_lines(line: bytes) -> List[bytes]:
    """The lines a stored page holds for ``line``.

    The page tokenizers end a line at ``\\n``, ``\\r`` and ``\\r\\n``, as
    ``bytes.splitlines`` does, so a line holding one is several stored
    lines and no stored token holds a line end. Template mining and
    tagging split a line here before :func:`split_tokens`, and
    :func:`repro.datasets.loader.read_log_lines` splits a file's lines.
    """
    return line.splitlines() or [line]


def check_lines(lines: Sequence[bytes]) -> None:
    """Refuse a batch in which a line holds a line end.

    A stored page ends a line at ``\\n`` and ``\\r``, so a supplied line
    holding either would be stored as several lines, and answer with
    lines nobody ingested. Every intake calls this before anything is
    journaled or stored; refusing rather than splitting keeps a report's
    line count and timestamps aligned with the caller's input. One join
    and two C-level searches decide a clean batch; only a refused one is
    walked line by line, to name the first bad index.
    """
    if not lines:
        return
    text = b"\n".join(lines)
    if text.count(b"\n") == len(lines) - 1 and b"\r" not in text:
        return
    for index, line in enumerate(lines):
        check_line(line, index)


def check_line(line: bytes, index: int = 0) -> None:
    """Refuse one line holding ``\\n`` or ``\\r``, as :func:`check_lines`
    refuses a batch; ``index`` names the line in the error."""
    if b"\n" in line or b"\r" in line:
        raise IngestError(
            f"line {index} holds a line end: {bytes(line[:40])!r}; "
            "ingest one line per item (read_log_lines splits a file)"
        )


def split_tokens_reference(line: bytes) -> List[bytes]:
    """Byte-at-a-time reference for :func:`split_tokens`.

    This walks the line the way the hardware tokenizer's state machine
    does — one byte per step, cutting a token at every delimiter run —
    and exists purely as the equivalence oracle for the kernel above.
    """
    if not line:
        return []
    body = line.rstrip(b"\n")
    tokens: List[bytes] = []
    start: int | None = None
    for i, byte in enumerate(body):
        if byte in DELIMITERS:
            if start is not None:
                tokens.append(body[start:i])
                start = None
        elif start is None:
            start = i
    if start is not None:
        tokens.append(body[start:])
    return tokens


def tokenize_page(payload: bytes) -> tuple[List[bytes], List[List[bytes]]]:
    """Split one decompressed page into lines and per-line token lists.

    Batch kernel for the scan executor: the delimiter translate runs once
    over the whole page instead of once per line, and the returned lines
    are the *original* bytes (tabs preserved) so filtered output stays
    byte-identical with the per-line path. Line boundaries follow
    ``bytes.splitlines`` exactly, mirroring the device's FILTER mode.
    """
    raw_lines = payload.splitlines()
    if b"\t" in payload:
        translated = payload.translate(_DELIM_TRANSLATE).splitlines()
    else:
        translated = raw_lines
    # splitlines-produced lines carry no line terminator, so no rstrip
    token_lists = [
        [token for token in body.split(b" ") if token] for body in translated
    ]
    return raw_lines, token_lists


def page_token_set(payload: bytes) -> set[bytes]:
    """The distinct tokens of one page's text: the ingest-side index key.

    Equals the union of :func:`tokenize_page`'s token lists (same
    delimiters, same ``bytes.splitlines`` line ends) without building
    the lines: one translate, one split. Indexing a page under the
    tokens of the text it *stores* is what keeps the index and every
    scan route agreeing about a line that carries ``\\n`` or ``\\r``.
    """
    tokens = set(payload.translate(_PAGE_TRANSLATE).split(b" "))
    tokens.discard(b"")
    return tokens


@dataclass(frozen=True)
class TokenWord:
    """One datapath word of tokenized output (Figure 4)."""

    data: bytes
    last_of_token: bool
    last_of_line: bool
    token_index: int
    useful_bytes: int

    def __post_init__(self) -> None:
        if self.useful_bytes > len(self.data):
            raise ValueError("useful_bytes exceeds word size")


class Tokenizer:
    """Functional model of one hardware tokenizer lane."""

    def __init__(self, datapath_bytes: int = DATAPATH_BYTES) -> None:
        if datapath_bytes <= 0:
            raise ValueError("datapath_bytes must be positive")
        self.datapath_bytes = datapath_bytes

    def tokenize_line(self, line: bytes) -> List[TokenWord]:
        """Emit the aligned token-word stream for one line.

        A line with no tokens (empty, or all delimiters) still emits one
        all-zero word flagged ``last_of_line`` so the downstream hash
        filter sees every line and keeps scatter/gather ordering intact.
        """
        return list(self.iter_words(line))

    def iter_words(self, line: bytes) -> Iterator[TokenWord]:
        w = self.datapath_bytes
        tokens = split_tokens(line)
        if not tokens:
            yield TokenWord(
                data=b"\0" * w,
                last_of_token=True,
                last_of_line=True,
                token_index=0,
                useful_bytes=0,
            )
            return
        for t_index, token in enumerate(tokens):
            last_token = t_index == len(tokens) - 1
            for off in range(0, len(token), w):
                piece = token[off : off + w]
                is_last_word = off + w >= len(token)
                yield TokenWord(
                    data=piece + b"\0" * (w - len(piece)),
                    last_of_token=is_last_word,
                    last_of_line=last_token and is_last_word,
                    token_index=t_index,
                    useful_bytes=len(piece),
                )

    def ingest_cycles(self, line: bytes, bytes_per_cycle: int = 2) -> int:
        """Cycles to ingest the line (including its newline) at the lane rate."""
        if bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")
        total = len(line) + 1  # the newline terminator is ingested too
        return -(-total // bytes_per_cycle)


def reassemble_tokens(words: Iterator[TokenWord]) -> Iterator[tuple[bytes, bool]]:
    """Reverse of :meth:`Tokenizer.iter_words` for one line's word stream.

    Yields ``(token, last_of_line)`` pairs; multi-word tokens are joined
    from their pieces. This mirrors what the hash filter's front end does
    with the overflow comparisons.
    """
    pieces: list[bytes] = []
    for word in words:
        pieces.append(word.data[: word.useful_bytes])
        if word.last_of_token:
            yield b"".join(pieces), word.last_of_line
            pieces.clear()
    if pieces:
        raise ValueError("token-word stream ended mid-token")
