"""Bounded LRU cache of decompressed flash pages.

Template queries hit the same candidate pages over and over (the paper's
batched-query workload re-reads whole segments per batch), and LZAH
decode is the most expensive host-side step of the functional
simulation. The :class:`PageCache` lets repeated scans skip it entirely:
entries are keyed by ``(device, page address, codec)`` and guarded by a
fingerprint of the *compressed* payload, so a page that was rewritten
or handed back corrupted by a fault injector never serves a
stale or wrongly-clean decode — a corrupted payload misses the cache and
flows through the real decoder, raising exactly the error the uncached
path would.

Invalidation is event-driven: the owning system registers a write
listener on its flash array (:attr:`repro.storage.flash.FlashArray
.write_listeners`), so every page write — data and index-node appends,
explicit rewrites — drops the stale entry immediately, in O(1).

The cache only ever changes host wall-clock time. Simulated timing and
``hw/perf`` cycle accounting are computed from byte counts that are
identical with and without it.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import Hashable, Optional

from repro.obs.metrics import handle

#: Default capacity in pages (~a few MB of decompressed text at the
#: prototype's 8 KiB pages and ~2x compression).
DEFAULT_CACHE_PAGES = 1024


def payload_fingerprint(payload: bytes) -> tuple[int, int]:
    """Cheap identity check for a compressed payload.

    Length plus CRC32 — a C-speed fraction of an LZAH decode. Two
    payloads with the same fingerprint are treated as identical; a
    bit-flipped page (fault injection, silent corruption) changes the
    CRC and therefore misses, preserving the uncached error behaviour.
    """
    return len(payload), zlib.crc32(payload)


class PageCache:
    """LRU map from ``(device, page, codec)`` to decompressed page text.

    The LRU is keyed by ``(device, page address)`` — the granularity
    writes invalidate at — and each entry carries the codec key and
    payload fingerprint it was decoded under; both must match on lookup.
    One decode is cached per page, which is exact for a store's single
    codec and merely conservative if codecs were ever mixed.

    ``max_pages <= 0`` disables caching entirely (every lookup misses and
    nothing is stored) — the configuration the benchmarks use for their
    pre-cache baselines.
    """

    def __init__(self, max_pages: int = DEFAULT_CACHE_PAGES) -> None:
        self.max_pages = max_pages
        # (device_key, address) -> (codec_key, fingerprint, decoded)
        self._entries: "OrderedDict[tuple[int, int], tuple[Hashable, tuple[int, int], bytes]]" = (
            OrderedDict()
        )
        self._m_hits = handle("mithrilog_scan_cache_hits_total")
        self._m_misses = handle("mithrilog_scan_cache_misses_total")
        self._m_evictions = handle("mithrilog_scan_cache_evictions_total")
        self._m_pages = handle("mithrilog_scan_cache_pages")
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup ----------------------------------------------------------

    def get(
        self,
        device_key: int,
        address: int,
        codec_key: Hashable,
        payload: bytes,
    ) -> Optional[bytes]:
        """The cached decode for this page, or ``None`` on a miss.

        The stored codec key and payload fingerprint must both match; a
        fingerprint mismatch (the page changed under the key, or the read
        handed back a corrupted copy) is a miss, so the caller decodes —
        and fails — exactly as it would without the cache.
        """
        entry = self._entries.get((device_key, address))
        if (
            entry is not None
            and entry[0] == codec_key
            and entry[1] == payload_fingerprint(payload)
        ):
            self._entries.move_to_end((device_key, address))
            self.hits += 1
            self._m_hits.inc()
            return entry[2]
        self.misses += 1
        self._m_misses.inc()
        return None

    # -- updates ---------------------------------------------------------

    def put(
        self,
        device_key: int,
        address: int,
        codec_key: Hashable,
        payload: bytes,
        decoded: bytes,
    ) -> None:
        """Store one decode, evicting the least recently used past the bound."""
        if self.max_pages <= 0:
            return
        if not isinstance(decoded, bytes):
            # a memoryview/bytearray stored here could be rewritten by
            # its owner and serve stale bytes forever after — snapshot to
            # immutable bytes at the cache boundary
            decoded = bytes(decoded)
        entries = self._entries
        entries[(device_key, address)] = (
            codec_key,
            payload_fingerprint(payload),
            decoded,
        )
        entries.move_to_end((device_key, address))
        while len(entries) > self.max_pages:
            entries.popitem(last=False)
            self.evictions += 1
            self._m_evictions.inc()
        self._m_pages.set(len(entries))

    def invalidate(self, device_key: int, address: int) -> None:
        """Drop the entry for one page of one device (O(1)).

        Called from the flash write listener on every page write —
        data and index-node appends and explicit writes (a store reload)
        all funnel through the same two write methods.
        """
        if self._entries.pop((device_key, address), None) is not None:
            self._m_pages.set(len(self._entries))

    def clear(self) -> None:
        """Drop everything (used when a store is reloaded wholesale)."""
        self._entries.clear()
        self._m_pages.set(0)
