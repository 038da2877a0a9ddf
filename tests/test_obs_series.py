"""Exported metric series: the ring of per-evaluation window values a
:class:`~repro.stream.windows.WindowAggregator` exports, and the metrics
registry a :class:`~repro.obs.recorder.FlightRecorder` samples when an
alert fires.
"""

import pytest

from repro.errors import QueryError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SLO, SLOMonitor
from repro.stream.windows import (
    SERIES_POINTS,
    WINDOW_AGGREGATES,
    WindowAggregator,
    WindowSpec,
)


def points(agg, aggregate="count"):
    return agg.to_dict()["series"][aggregate]["points"]


class TestRingSeries:
    def test_time_must_not_go_backwards(self):
        agg = WindowAggregator("x", WindowSpec(kind="sliding", width_s=1.0))
        agg.observe(1.0, 1)
        with pytest.raises(QueryError):
            agg.observe(0.5, 2)
        for aggregate in WINDOW_AGGREGATES:
            assert [t for t, _ in points(agg, aggregate)] == [1.0]

    def test_same_instant_overwrites(self):
        agg = WindowAggregator("x", WindowSpec(kind="sliding", width_s=1.0))
        agg.observe(1.0, 1)
        agg.observe(1.0, 8)
        assert points(agg) == [[1.0, 9.0]]
        assert agg.latest("count") == 9.0

    def test_ring_evicts_oldest(self):
        agg = WindowAggregator("x", WindowSpec(kind="sliding", width_s=1.0))
        for i in range(SERIES_POINTS + 3):
            agg.observe(float(i), i)
        times = [t for t, _ in points(agg)]
        assert len(times) == SERIES_POINTS
        assert times[:2] == [3.0, 4.0]
        assert times[-1] == float(SERIES_POINTS + 2)

    def test_to_dict_windowed(self):
        # each exported point is the window value at its instant, so
        # matches that leave the sliding window leave the series too
        agg = WindowAggregator("q", WindowSpec(kind="sliding", width_s=0.1))
        agg.observe(0.0, 5)
        agg.observe(0.05, 2)
        agg.observe(0.1, 0)
        series = agg.to_dict()["series"]["count"]
        assert series["name"] == "stream_window_count"
        assert series["labels"] == {"query": "q"}
        assert series["points"] == [[0.0, 5.0], [0.05, 7.0], [0.1, 2.0]]


class TestMetricSampler:
    def test_uses_active_registry_by_default(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            registry.counter("c_total").inc()
            slo = SLO(
                name="avail",
                objective="availability",
                target=0.9,
                fast_window_s=0.05,
                slow_window_s=0.25,
                burn_threshold=2.0,
                resolve_after_s=0.1,
            )
            monitor = SLOMonitor([slo], interval_s=0.005)
            recorder = FlightRecorder(monitor)
        assert recorder.registry is registry
        for i in range(50):
            outcome = "ok" if i < 10 else "shed"
            monitor.observe("t0", outcome, 0.001, now_s=i * 0.005)
        metrics = recorder.bundles[0]["metrics"]["metrics"]
        assert metrics["c_total"]["samples"] == [{"labels": {}, "value": 1.0}]
