"""Windowed aggregates: membership rules, pruning, and the load-bearing
hypothesis property — the incrementally maintained window state equals a
batch recompute over the full event history, for any append schedule and
both window kinds.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QueryError
from repro.stream.windows import (
    SERIES_POINTS,
    WINDOW_AGGREGATES,
    WindowAggregator,
    WindowSpec,
)


class TestWindowSpec:
    def test_defaults(self):
        spec = WindowSpec()
        assert spec.kind == "tumbling"
        assert spec.width_s == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [{"kind": "hopping"}, {"width_s": 0.0}, {"width_s": -1.0}],
    )
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(QueryError):
            WindowSpec(**kwargs)

    def test_sliding_start_trails_now(self):
        spec = WindowSpec(kind="sliding", width_s=0.25)
        assert spec.start_at(1.0) == pytest.approx(0.75)

    def test_tumbling_start_aligns_to_buckets(self):
        spec = WindowSpec(kind="tumbling", width_s=0.5)
        assert spec.start_at(1.3) == pytest.approx(1.0)
        # a boundary instant opens the new bucket
        assert spec.start_at(1.5) == pytest.approx(1.5)

    def test_round_trip(self):
        spec = WindowSpec(kind="sliding", width_s=0.1)
        assert WindowSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_refuses_unknown_keys(self):
        with pytest.raises(QueryError):
            WindowSpec.from_dict({"kind": "tumbling", "hop_s": 0.1})


class TestWindowAggregator:
    def agg(self, kind="sliding", width_s=1.0):
        return WindowAggregator("q", WindowSpec(kind=kind, width_s=width_s))

    def test_observe_returns_live_values(self):
        agg = self.agg()
        values = agg.observe(0.5, 3, {"tmpl-a", "tmpl-b"})
        assert values["count"] == 3.0
        assert values["rate"] == pytest.approx(3.0)
        assert values["distinct_templates"] == 2.0

    def test_sliding_window_forgets(self):
        agg = self.agg(width_s=0.1)
        agg.observe(0.0, 5)
        agg.observe(0.05, 2)
        assert agg.value("count", 0.05) == 7.0
        # 0.0 falls out once the trailing window passes it (strict >)
        assert agg.value("count", 0.1) == 2.0
        assert agg.value("count", 0.2) == 0.0

    def test_tumbling_window_resets_at_the_boundary(self):
        agg = self.agg(kind="tumbling", width_s=0.1)
        agg.observe(0.05, 4)
        agg.observe(0.08, 1)
        assert agg.value("count", 0.09) == 5.0
        # the next bucket starts empty; a boundary observation joins it
        agg.observe(0.1, 2)
        assert agg.value("count", 0.1) == 2.0

    def test_rate_uses_the_nominal_width(self):
        agg = self.agg(kind="tumbling", width_s=0.5)
        agg.observe(0.1, 10)
        # half-full bucket reads low, not extrapolated
        assert agg.value("rate", 0.1) == pytest.approx(20.0)

    def test_distinct_templates_dedup_across_observations(self):
        agg = self.agg()
        agg.observe(0.1, 1, {"a", "b"})
        agg.observe(0.2, 1, {"b", "c"})
        assert agg.value("distinct_templates", 0.2) == 3.0

    def test_time_backwards_rejected(self):
        agg = self.agg()
        agg.observe(1.0, 0)
        with pytest.raises(QueryError):
            agg.observe(0.5, 0)
        # the refused observation left no point in the export ring
        assert agg.to_dict()["series"]["count"]["points"] == [[1.0, 0.0]]

    def test_negative_matches_rejected(self):
        with pytest.raises(QueryError):
            self.agg().observe(0.0, -1)

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(QueryError):
            self.agg().value("p99", 0.0)

    def test_latest_tracks_the_series(self):
        agg = self.agg()
        assert agg.latest("count") is None
        agg.observe(0.1, 4)
        assert agg.latest("count") == 4.0
        # a second evaluation at the same instant overwrites the point
        agg.observe(0.1, 5)
        assert agg.latest("count") == 9.0
        assert agg.to_dict()["series"]["count"]["points"] == [[0.1, 9.0]]

    def test_pruning_never_touches_the_live_window(self):
        agg = self.agg(width_s=0.01)
        n = SERIES_POINTS + 88
        for i in range(n):
            agg.observe(i * 0.005, 1)
        # far more observations than the ring retains, yet the live
        # window (trailing 10 ms = the last two observations) is exact
        assert agg.value("count", (n - 1) * 0.005) == 2.0
        assert agg.matches_total == n
        assert agg.evaluations == n
        # the export ring evicted the oldest points, keeping the newest
        points = agg.to_dict()["series"]["count"]["points"]
        assert len(points) == SERIES_POINTS
        assert points[0][0] == (n - SERIES_POINTS) * 0.005
        assert points[-1][0] == (n - 1) * 0.005

    def test_to_dict_shape(self):
        agg = self.agg()
        agg.observe(0.1, 2, {"t"})
        payload = agg.to_dict()
        assert payload["evaluations"] == 1
        assert payload["matches_total"] == 2
        assert set(payload["series"]) == set(WINDOW_AGGREGATES)
        assert payload["series"]["rate"] == {
            "name": "stream_window_rate",
            "labels": {"query": "q"},
            "kind": "gauge",
            "points": [[0.1, 2.0]],
        }


def batch_recompute(spec, events, aggregate, now_s):
    """Reference implementation: the aggregate over the full history."""
    start = spec.start_at(now_s)
    if spec.kind == "sliding":
        live = [e for e in events if start < e[0] <= now_s]
    else:
        live = [e for e in events if start <= e[0] <= now_s]
    if aggregate == "count":
        return float(sum(matches for _, matches, _ in live))
    if aggregate == "rate":
        return sum(matches for _, matches, _ in live) / spec.width_s
    distinct = set()
    for _, _, fingerprints in live:
        distinct.update(fingerprints)
    return float(len(distinct))


_schedules = st.lists(
    st.tuples(
        st.floats(
            min_value=0.0,
            max_value=0.25,
            allow_nan=False,
            allow_infinity=False,
        ),  # inter-observation gap
        st.integers(min_value=0, max_value=20),  # matches
        st.sets(st.integers(min_value=0, max_value=5), max_size=4),
    ),
    min_size=1,
    max_size=30,
)


class TestIncrementalEqualsBatch:
    """Satellite property: incremental window state == batch recompute.

    The aggregator prunes observations two widths back; the reference
    keeps everything. Agreement at every step proves pruning never
    reaches into a live window, for any append schedule.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        schedule=_schedules,
        kind=st.sampled_from(["tumbling", "sliding"]),
        width_s=st.sampled_from([0.01, 0.07, 0.5]),
    )
    def test_any_append_schedule(self, schedule, kind, width_s):
        spec = WindowSpec(kind=kind, width_s=width_s)
        agg = WindowAggregator("q", spec)
        events = []
        now = 0.0
        for gap, matches, tmpl_ids in schedule:
            now += gap
            fingerprints = {f"tmpl{i}" for i in tmpl_ids}
            live = agg.observe(now, matches, fingerprints)
            events.append((now, matches, fingerprints))
            for aggregate in WINDOW_AGGREGATES:
                expected = batch_recompute(spec, events, aggregate, now)
                assert live[aggregate] == pytest.approx(expected), (
                    f"{aggregate} diverged at t={now}"
                )

    @settings(max_examples=30, deadline=None)
    @given(
        schedule=_schedules,
        probe_gap=st.floats(
            min_value=0.0,
            max_value=1.0,
            allow_nan=False,
            allow_infinity=False,
        ),
    )
    def test_probing_between_observations(self, schedule, probe_gap):
        # reads at arbitrary later instants (no observe) also agree
        spec = WindowSpec(kind="sliding", width_s=0.07)
        agg = WindowAggregator("q", spec)
        events = []
        now = 0.0
        for gap, matches, tmpl_ids in schedule:
            now += gap
            fingerprints = {f"tmpl{i}" for i in tmpl_ids}
            agg.observe(now, matches, fingerprints)
            events.append((now, matches, fingerprints))
        probe = now + probe_gap
        for aggregate in WINDOW_AGGREGATES:
            assert agg.value(aggregate, probe) == pytest.approx(
                batch_recompute(spec, events, aggregate, probe)
            )

    def test_reference_matches_on_a_pathological_boundary(self):
        # tumbling boundary: floor() alignment must agree exactly
        spec = WindowSpec(kind="tumbling", width_s=0.1)
        agg = WindowAggregator("q", spec)
        for t in (0.1, 0.2, 0.30000000000000004):  # 3 * 0.1 in floats
            agg.observe(t, 1)
            assert agg.value("count", t) == batch_recompute(
                spec, [(t, 1, set())], "count", t
            )
