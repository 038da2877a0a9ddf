"""Tests for the metrics registry primitives."""

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL,
    MetricError,
    MetricsRegistry,
    disable,
    enable,
    get_registry,
    use_registry,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        c = registry.counter("c_total", "help")
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_cannot_decrease(self, registry):
        c = registry.counter("c_total")
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_labels_partition_values(self, registry):
        c = registry.counter("reads_total", labelnames=("mode",))
        c.inc(mode="filter")
        c.inc(3, mode="raw")
        assert c.value(mode="filter") == 1
        assert c.value(mode="raw") == 3
        assert c.samples() == [
            ({"mode": "filter"}, 1.0),
            ({"mode": "raw"}, 3.0),
        ]

    def test_wrong_labels_rejected(self, registry):
        c = registry.counter("reads_total", labelnames=("mode",))
        with pytest.raises(MetricError):
            c.inc(shard="0")
        with pytest.raises(MetricError):
            c.inc()  # labels required once declared

    def test_thread_safety(self, registry):
        c = registry.counter("c_total")

        def worker():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 8000


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("mem_bytes")
        g.set(100)
        g.inc(5)
        g.dec(25)
        assert g.value() == 80


class TestHistogram:
    def test_cumulative_buckets(self, registry):
        h = registry.histogram("lat_seconds", buckets=(0.01, 0.1, 1.0))
        h.observe(0.005)
        h.observe(0.05)
        h.observe(5.0)  # lands only in +Inf
        ((labels, counts, total, count),) = h.series()
        assert labels == {}
        assert counts == [1, 2, 2, 3]  # cumulative, with implicit +Inf
        assert total == pytest.approx(5.055)
        assert count == 3

    def test_inf_bucket_appended(self, registry):
        h = registry.histogram("h", buckets=(1.0,))
        assert h.buckets[-1] == float("inf")

    def test_default_buckets_cover_sim_latencies(self, registry):
        h = registry.histogram("h")
        assert h.buckets == DEFAULT_BUCKETS

    def test_empty_buckets_rejected(self, registry):
        with pytest.raises(MetricError):
            registry.histogram("h", buckets=())


class TestRegistry:
    def test_get_or_create_shares_instances(self, registry):
        a = registry.counter("same_total", "first")
        b = registry.counter("same_total", "second help ignored")
        assert a is b
        a.inc()
        assert b.value() == 1

    def test_kind_clash_rejected(self, registry):
        registry.counter("x_total")
        with pytest.raises(MetricError):
            registry.gauge("x_total")

    def test_label_schema_clash_rejected(self, registry):
        registry.counter("x_total", labelnames=("a",))
        with pytest.raises(MetricError):
            registry.counter("x_total", labelnames=("b",))

    def test_bucket_clash_rejected(self, registry):
        first = registry.histogram("h", buckets=(1, 2))
        with pytest.raises(MetricError):
            registry.histogram("h", buckets=(5, 10))
        # the same edges in another spelling are the same histogram
        assert registry.histogram("h", buckets=(2.0, 1.0, float("inf"))) is first

    def test_collect_sorted_and_contains(self, registry):
        registry.counter("b_total")
        registry.gauge("a_gauge")
        assert [m.name for m in registry.collect()] == ["a_gauge", "b_total"]
        assert "b_total" in registry
        assert "missing" not in registry
        assert len(registry) == 2


class TestGlobalHandle:
    def test_default_on(self):
        assert get_registry() is not None

    def test_disable_enable_roundtrip(self):
        previous = disable()
        try:
            assert get_registry() is None
        finally:
            enable(previous)
        assert get_registry() is previous

    def test_use_registry_scopes_and_restores(self):
        outer = get_registry()
        fresh = MetricsRegistry()
        with use_registry(fresh):
            assert get_registry() is fresh
            with use_registry(None):
                assert get_registry() is None
            assert get_registry() is fresh
        assert get_registry() is outer

    def test_disabled_components_bind_null_handles(self):
        # the instrumentation pattern: constructed while disabled means
        # every metric handle is the shared no-op NULL
        from repro.storage.flash import FlashArray

        with use_registry(None):
            flash = FlashArray()
        assert flash._m_pages_read is NULL
