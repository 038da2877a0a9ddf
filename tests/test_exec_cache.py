"""Decompressed-page cache: LRU behaviour, invalidation, corruption guard.

The cache may only ever change host wall-clock time. These tests pin the
ways it could silently change *results* instead: stale entries after a
page rewrite, wrongly-clean decodes of corrupted payloads,
and unbounded growth.
"""

import pytest

from repro.core.query import parse_query
from repro.datasets.synthetic import generator_for
from repro.errors import ReadRetryExhaustedError
from repro.exec.cache import PageCache, payload_fingerprint
from repro.system.mithrilog import MithriLogSystem


class TestPageCacheUnit:
    def test_miss_then_hit(self):
        cache = PageCache(4)
        assert cache.get(0, 1, "lzah", b"payload") is None
        cache.put(0, 1, "lzah", b"payload", b"decoded text")
        assert cache.get(0, 1, "lzah", b"payload") == b"decoded text"
        assert cache.hits == 1 and cache.misses == 1

    def test_fingerprint_mismatch_is_a_miss(self):
        cache = PageCache(4)
        cache.put(0, 1, "lzah", b"payload", b"decoded")
        # same page, different stored bytes (rewritten or corrupted copy)
        assert cache.get(0, 1, "lzah", b"payloae") is None
        assert cache.get(0, 1, "lzah", b"payload\x00") is None

    def test_codec_mismatch_is_a_miss(self):
        cache = PageCache(4)
        cache.put(0, 1, ("lzah", "v1"), b"payload", b"decoded")
        assert cache.get(0, 1, ("lzah", "v2"), b"payload") is None

    def test_devices_are_namespaced(self):
        cache = PageCache(4)
        cache.put(0, 1, "lzah", b"payload", b"device zero")
        assert cache.get(1, 1, "lzah", b"payload") is None

    def test_lru_eviction_order(self):
        cache = PageCache(2)
        cache.put(0, 1, "c", b"p1", b"d1")
        cache.put(0, 2, "c", b"p2", b"d2")
        assert cache.get(0, 1, "c", b"p1") == b"d1"  # 1 is now most recent
        cache.put(0, 3, "c", b"p3", b"d3")  # evicts 2
        assert cache.get(0, 2, "c", b"p2") is None
        assert cache.get(0, 1, "c", b"p1") == b"d1"
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_invalidate_drops_only_that_page(self):
        cache = PageCache(4)
        cache.put(0, 1, "c", b"p1", b"d1")
        cache.put(0, 2, "c", b"p2", b"d2")
        cache.invalidate(0, 1)
        assert cache.get(0, 1, "c", b"p1") is None
        assert cache.get(0, 2, "c", b"p2") == b"d2"
        cache.invalidate(0, 99)  # unknown address: no-op

    def test_zero_capacity_disables(self):
        cache = PageCache(0)
        cache.put(0, 1, "c", b"p", b"d")
        assert len(cache) == 0
        assert cache.get(0, 1, "c", b"p") is None

    def test_clear(self):
        cache = PageCache(4)
        cache.put(0, 1, "c", b"p", b"d")
        cache.clear()
        assert len(cache) == 0

    def test_payload_fingerprint_sensitivity(self):
        assert payload_fingerprint(b"abc") == payload_fingerprint(b"abc")
        assert payload_fingerprint(b"abc") != payload_fingerprint(b"abd")
        assert payload_fingerprint(b"abc") != payload_fingerprint(b"abcd")


class TestArenaReuseGuard:
    """A buffer its owner can rewrite must never end up live in the cache.

    If a view of a mutable buffer were stored, a later write to it would
    silently change the cached entry in place — a stale read that no
    fingerprint could catch, because the compressed payload never
    changed. ``PageCache.put`` snapshots at the boundary. (The class and
    test names date from the scan kernel's recycled decode arena.)
    """

    def test_put_snapshots_mutable_buffers(self):
        cache = PageCache(4)
        buffer = bytearray(b"decoded page one")
        cache.put(0, 1, "lzah", b"payload", memoryview(buffer))
        buffer[:] = b"OVERWRITTEN....."  # the owner reuses its buffer
        got = cache.get(0, 1, "lzah", b"payload")
        assert got == b"decoded page one"
        assert isinstance(got, bytes)

    def test_recycled_arena_never_serves_stale_bytes_after_write(self, corpus):
        """End to end: warm the cache through the vectorized scan path,
        rewrite a flash page (the write listener invalidates), and check
        the next scan sees the new bytes — against a never-cached oracle.
        """
        pytest.importorskip("numpy")
        system = MithriLogSystem(seed=5, scan_kernel="vectorized")
        system.ingest(corpus)
        first = system.scan_all(QUERY)  # cold: bulk decodes fill the cache
        assert len(system.page_cache) > 0
        assert system.scan_all(QUERY).matched_lines == first.matched_lines
        assert system.page_cache.hits > 0
        # every cached value must be an immutable snapshot, not a view
        for entry in system.page_cache._entries.values():
            assert isinstance(entry[2], bytes)
        # rewrite one hot page with another page's contents; the write
        # listener must invalidate the stale decode
        victim = system.index.data_pages[0]
        donor = system.index.data_pages[1]
        donor_page = system.device.flash.read_page(donor)
        system.device.flash.write_page(victim, donor_page)
        key = (system.device.device_key, victim)
        assert key not in system.page_cache._entries
        rewritten = system.scan_all(QUERY)
        oracle = MithriLogSystem(seed=5, cache_pages=0)
        oracle.ingest(corpus)
        oracle.device.flash.write_page(
            oracle.index.data_pages[0],
            oracle.device.flash.read_page(oracle.index.data_pages[1]),
        )
        assert rewritten.matched_lines == oracle.scan_all(QUERY).matched_lines


@pytest.fixture(scope="module")
def corpus():
    return list(generator_for("Liberty2", seed=5).iter_lines(2000))


QUERY = parse_query("session AND opened")


class TestCacheInSystem:
    def test_repeat_scan_hits_and_results_match(self, corpus):
        system = MithriLogSystem(seed=5)
        system.ingest(corpus)
        first = system.scan_all(QUERY)
        assert system.page_cache.hits == 0
        second = system.scan_all(QUERY)
        assert system.page_cache.hits > 0
        assert second.matched_lines == first.matched_lines
        assert second.stats.bytes_decompressed == first.stats.bytes_decompressed

    def test_ingest_append_invalidates_new_pages_only(self, corpus):
        system = MithriLogSystem(seed=5)
        system.ingest(corpus[:1000])
        system.scan_all(QUERY)  # warm
        warm = len(system.page_cache)
        assert warm > 0
        system.ingest(corpus[1000:])  # appends fresh pages
        # appended pages were never cached; the warm entries survive
        assert len(system.page_cache) == warm
        oracle = MithriLogSystem(seed=5)
        oracle.ingest(corpus[:1000])
        oracle.ingest(corpus[1000:])
        assert (
            system.scan_all(QUERY).matched_lines
            == oracle.scan_all(QUERY).matched_lines
        )

    def test_page_rewrite_invalidates(self, corpus):
        system = MithriLogSystem(seed=5)
        system.ingest(corpus)
        system.scan_all(QUERY)  # warm the cache
        victim = system.index.data_pages[0]
        assert (system.device.device_key, victim) in system.page_cache._entries
        # rewrite the page in place (an explicit device write)
        page = system.device.flash.read_page(victim)
        system.device.flash.write_page(victim, page)
        assert (
            system.device.device_key,
            victim,
        ) not in system.page_cache._entries

    def test_corrupted_page_still_fails_loudly(self, corpus):
        system = MithriLogSystem(seed=5)
        system.ingest(corpus)
        system.scan_all(QUERY)  # warm the cache with the clean decode
        victim = system.index.data_pages[0]
        system.device.flash.corrupt_page(victim, flip_at=40)
        # corrupt_page bypasses the write listener on purpose; the warm
        # cache must not mask the corruption — the scan fails exactly as
        # an uncached system's would (page checksum, retries exhausted)
        with pytest.raises(ReadRetryExhaustedError):
            system.scan_all(QUERY)
        uncached = MithriLogSystem(seed=5, cache_pages=0)
        uncached.ingest(corpus)
        uncached.device.flash.corrupt_page(
            uncached.index.data_pages[0], flip_at=40
        )
        with pytest.raises(ReadRetryExhaustedError):
            uncached.scan_all(QUERY)

    def test_cache_disabled_system_still_correct(self, corpus):
        cached = MithriLogSystem(seed=5)
        cached.ingest(corpus)
        uncached = MithriLogSystem(seed=5, cache_pages=0)
        uncached.ingest(corpus)
        cached.scan_all(QUERY)
        assert (
            cached.scan_all(QUERY).matched_lines
            == uncached.scan_all(QUERY).matched_lines
        )
        assert len(uncached.page_cache) == 0
