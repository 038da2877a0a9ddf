"""Reusable decode arena for the zero-copy scan path.

The vectorized scan decompresses every page of a partition through one
:class:`DecodeArena`: a single ``bytearray`` that grows monotonically to
the largest page seen and is recycled page after page.
:meth:`LZAHCompressor.decompress_into <repro.compression.lzah.LZAHCompressor.decompress_into>`
lands each decoded page in it, and the tokenizer reads the returned
``memoryview`` directly (``np.frombuffer``).

The lifetime contract is strict and is what the PageCache arena-reuse
tests pin down: a view returned by :meth:`request` is valid only until
the next :meth:`request` call. Anything that must outlive the page —
kept lines, cache entries — must be copied out to immutable ``bytes``
first (``PageCache.put`` enforces this defensively).
"""

from __future__ import annotations

__all__ = ["DecodeArena"]


class DecodeArena:
    """A recycled page-decode buffer handing out sized memoryviews."""

    __slots__ = ("_buffer", "generation")

    def __init__(self, initial_bytes: int = 1 << 16) -> None:
        self._buffer = bytearray(max(1, initial_bytes))
        #: bumped on every :meth:`request`; lets tests assert that a view
        #: they held was invalidated by a later page decode
        self.generation = 0

    @property
    def capacity(self) -> int:
        return len(self._buffer)

    def request(self, size: int) -> memoryview:
        """A writable view of exactly ``size`` bytes.

        Invalidates every previously returned view (contents may be
        overwritten by the next decode). Growth rebinds a fresh, larger
        ``bytearray`` rather than resizing in place — resizing a
        ``bytearray`` with exported memoryviews raises ``BufferError``,
        and a straggler view into the *old* buffer is at least stable
        garbage rather than a crash.
        """
        self.generation += 1
        if size > len(self._buffer):
            self._buffer = bytearray(max(size, 2 * len(self._buffer)))
        return memoryview(self._buffer)[:size]
