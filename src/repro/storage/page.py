"""Flash pages.

A :class:`Page` is an immutable byte payload of at most ``PAGE_BYTES``,
carrying a checksum so the fault-injection tests can model silent
corruption being caught on read.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.errors import PageCorruptionError, StorageError
from repro.params import PAGE_BYTES

__all__ = ["PAGE_BYTES", "Page"]


@dataclass(frozen=True)
class Page:
    """One flash page: payload bytes plus integrity checksum.

    Payloads shorter than ``PAGE_BYTES`` are legal (the tail of a stream);
    longer payloads are rejected. The checksum is computed at construction
    and checked by :meth:`verify`. The payload is stored as ``bytes``
    whatever buffer it came in, so an object's bytes cannot change and a
    successful check holds for its life: a page verifies once. Every
    fault the repository models (:meth:`corrupted`, an injector's bit
    flip, ``FlashArray.corrupt_page``, a store load) yields a new,
    unverified object.
    """

    data: bytes
    checksum: int = -1
    _verified: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.data) is not bytes:
            object.__setattr__(self, "data", bytes(self.data))
        if len(self.data) > PAGE_BYTES:
            raise StorageError(
                f"page payload of {len(self.data)} bytes exceeds {PAGE_BYTES}"
            )
        if self.checksum == -1:
            object.__setattr__(self, "checksum", zlib.crc32(self.data))

    def verify(self) -> None:
        """Raise :class:`PageCorruptionError` if payload and checksum disagree."""
        if self._verified:
            return
        if zlib.crc32(self.data) != self.checksum:
            raise PageCorruptionError("page checksum mismatch")
        object.__setattr__(self, "_verified", True)

    def corrupted(self, flip_at: int = 0) -> "Page":
        """Return a copy with one byte flipped but the *old* checksum.

        Used by fault-injection tests; reading such a page raises.
        """
        if not self.data:
            raise StorageError("cannot corrupt an empty page")
        pos = flip_at % len(self.data)
        mutated = bytes(
            b ^ 0xFF if i == pos else b for i, b in enumerate(self.data)
        )
        return Page(data=mutated, checksum=self.checksum)

    def __len__(self) -> int:
        return len(self.data)


def split_into_pages(payload: bytes, page_bytes: int = PAGE_BYTES) -> list[Page]:
    """Chunk a byte stream into full pages plus a possibly-short tail page."""
    if page_bytes <= 0 or page_bytes > PAGE_BYTES:
        raise StorageError(f"page_bytes must be in (0, {PAGE_BYTES}]")
    return [
        Page(payload[off : off + page_bytes])
        for off in range(0, max(len(payload), 1), page_bytes)
    ]
