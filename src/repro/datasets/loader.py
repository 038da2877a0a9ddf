"""Corpus loading and page chunking.

Ingestion stores log text page by page; pages must break at line
boundaries so every stored page decompresses into whole lines and the
inverted index can attribute tokens to pages exactly
(:func:`chunk_lines_into_pages`). Real log files on disk load through
:func:`read_log_lines`.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Optional

from repro.core.tokenizer import stored_lines
from repro.errors import IngestError
from repro.params import PAGE_BYTES


def read_log_lines(path: str | os.PathLike, limit: Optional[int] = None) -> list[bytes]:
    """Read a newline-delimited log file as a list of lines.

    Lines end where a stored page ends them: at ``\\n``, ``\\r`` and
    ``\\r\\n`` (:func:`~repro.core.tokenizer.stored_lines`), so a file with
    bare ``\\r`` ends loads as the lines ingest accepts. Blank lines are
    kept (they are legal log lines), and nothing is decoded — logs are
    bytes.
    """
    lines: list[bytes] = []
    with open(path, "rb") as handle:
        for raw in handle:
            lines.extend(stored_lines(raw))
            if limit is not None and len(lines) >= limit:
                del lines[limit:]
                break
    return lines


def chunk_lines_into_pages(
    lines: Iterable[bytes],
    page_bytes: int = PAGE_BYTES,
    target_fill: float = 1.0,
) -> Iterator[tuple[bytes, list[bytes]]]:
    """Group lines into page-sized text chunks broken at line boundaries.

    Yields ``(chunk_text, chunk_lines)`` where ``chunk_text`` is the
    newline-joined, newline-terminated text of the chunk and never
    exceeds ``page_bytes * target_fill`` *uncompressed*. (When chunks are
    stored compressed, callers may pass a ``target_fill`` above 1.0 to
    fill flash pages better; the system layer calibrates this.)

    A single line longer than the budget is rejected: the paper's page
    format has no line-spanning continuation, and real HPC log lines are
    far below 4 KB.
    """
    budget = int(page_bytes * target_fill)
    if budget <= 0:
        raise IngestError("page budget must be positive")
    chunk: list[bytes] = []
    used = 0
    for line in lines:
        need = len(line) + 1
        if need > budget:
            raise IngestError(
                f"line of {len(line)} bytes exceeds the page budget {budget}"
            )
        if used + need > budget and chunk:
            yield b"".join(ln + b"\n" for ln in chunk), chunk
            chunk, used = [], 0
        chunk.append(line)
        used += need
    if chunk:
        yield b"".join(ln + b"\n" for ln in chunk), chunk
