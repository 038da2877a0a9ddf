"""Tests for the higher-order analytics layer."""

import pytest

pytest.importorskip("numpy")  # repro.analytics is numpy's

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analytics.anomaly import PCAAnomalyDetector
from repro.analytics.clustering import KMeans, silhouette
from repro.analytics.counting import count_windows


class TestCountWindows:
    def test_basic_bucketing(self):
        matrix = count_windows(
            template_ids=[0, 1, 0, None],
            timestamps=[0.0, 1.0, 10.0, 11.0],
            window_s=5.0,
            num_templates=2,
        )
        assert matrix.num_windows == 3
        assert matrix.counts[0].tolist() == [1, 1, 0]
        assert matrix.counts[1].tolist() == [0, 0, 0]  # quiet window kept
        assert matrix.counts[2].tolist() == [1, 0, 1]  # untagged in last col

    def test_window_of(self):
        matrix = count_windows([0], [100.0], window_s=10.0, num_templates=1)
        assert matrix.window_of(100.0) == 0
        with pytest.raises(ValueError):
            matrix.window_of(200.0)

    def test_volumes(self):
        matrix = count_windows(
            [0, 0, 1], [0.0, 0.1, 6.0], window_s=5.0, num_templates=2
        )
        assert matrix.volumes().tolist() == [2, 1]

    def test_empty_input(self):
        matrix = count_windows([], [], window_s=5.0, num_templates=3)
        assert matrix.num_windows == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            count_windows([0], [], window_s=5.0, num_templates=1)
        with pytest.raises(ValueError):
            count_windows([0], [0.0], window_s=0.0, num_templates=1)
        with pytest.raises(ValueError):
            count_windows([5], [0.0], window_s=1.0, num_templates=2)

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.floats(0, 1000)),
            min_size=1,
            max_size=100,
        ),
        st.floats(0.5, 50),
    )
    @settings(max_examples=80)
    def test_counts_conserve_lines(self, tagged, window):
        ids = [t for t, _ in tagged]
        stamps = [s for _, s in tagged]
        matrix = count_windows(ids, stamps, window_s=window, num_templates=5)
        assert matrix.counts.sum() == len(tagged)


def _normal_windows(rng, n, templates=6):
    """Stationary mix: two correlated template groups plus noise."""
    base = rng.poisson(lam=20, size=(n, 1))
    pattern = np.array([[3, 3, 1, 1, 0.5, 0.2]])
    return (base * pattern + rng.poisson(2, size=(n, templates))).astype(float)


class TestPCAAnomaly:
    def test_injected_spike_detected(self):
        rng = np.random.default_rng(1)
        train = _normal_windows(rng, 200)
        test = _normal_windows(rng, 50)
        test[17, 5] += 500  # a rare template explodes
        detector = PCAAnomalyDetector().fit(train)
        report = detector.detect(test)
        assert 17 in report.anomalous_windows()

    def test_normal_windows_mostly_clean(self):
        rng = np.random.default_rng(2)
        detector = PCAAnomalyDetector().fit(_normal_windows(rng, 300))
        report = detector.detect(_normal_windows(rng, 100))
        assert len(report.anomalous_windows()) <= 5

    def test_scores_nonnegative(self):
        rng = np.random.default_rng(3)
        X = _normal_windows(rng, 50)
        detector = PCAAnomalyDetector().fit(X)
        assert (detector.scores(X) >= 0).all()

    def test_subspace_smaller_than_feature_space(self):
        rng = np.random.default_rng(4)
        detector = PCAAnomalyDetector(variance=0.9).fit(_normal_windows(rng, 200))
        assert 1 <= detector.num_components < 6

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            PCAAnomalyDetector().scores(np.zeros((3, 3)))
        with pytest.raises(RuntimeError):
            PCAAnomalyDetector().threshold()

    def test_degenerate_constant_input(self):
        X = np.ones((10, 4))
        detector = PCAAnomalyDetector().fit(X)
        assert detector.scores(X).max() == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PCAAnomalyDetector(variance=0.0)
        with pytest.raises(ValueError):
            PCAAnomalyDetector().fit(np.zeros(5))
        with pytest.raises(ValueError):
            PCAAnomalyDetector().fit(np.zeros((1, 5)))

    def test_custom_threshold(self):
        rng = np.random.default_rng(5)
        X = _normal_windows(rng, 100)
        detector = PCAAnomalyDetector().fit(X)
        report = detector.detect(X, threshold=float("inf"))
        assert report.anomalous_windows() == []


def _blobs(rng, centers, per=30, spread=0.3):
    points = []
    for cx, cy in centers:
        points.append(rng.normal((cx, cy), spread, size=(per, 2)))
    return np.vstack(points)


class TestKMeans:
    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(7)
        X = _blobs(rng, [(0, 0), (10, 10), (0, 10)])
        result = KMeans(k=3, seed=1).fit(X)
        assert result.k == 3
        sizes = sorted(result.cluster_sizes().tolist())
        assert sizes == [30, 30, 30]

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        X = _blobs(rng, [(0, 0), (5, 5)])
        a = KMeans(k=2, seed=3).fit(X)
        b = KMeans(k=2, seed=3).fit(X)
        assert np.array_equal(a.labels, b.labels)

    def test_inertia_decreases_with_k(self):
        rng = np.random.default_rng(9)
        X = _blobs(rng, [(0, 0), (8, 0), (4, 7)])
        i2 = KMeans(k=2, seed=0).fit(X).inertia
        i3 = KMeans(k=3, seed=0).fit(X).inertia
        assert i3 < i2

    def test_silhouette_prefers_true_k(self):
        rng = np.random.default_rng(10)
        X = _blobs(rng, [(0, 0), (12, 0), (6, 10)])
        s3 = silhouette(X, KMeans(k=3, seed=0).fit(X).labels)
        s2 = silhouette(X, KMeans(k=2, seed=0).fit(X).labels)
        assert s3 > s2 > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            KMeans(k=0)
        with pytest.raises(ValueError):
            KMeans(k=5).fit(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            KMeans(k=1, max_iter=0)
        with pytest.raises(ValueError):
            silhouette(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_more_clusters_than_distinct_points_ok(self):
        X = np.array([[0.0, 0.0]] * 5 + [[5.0, 5.0]] * 5)
        result = KMeans(k=2, seed=0).fit(X)
        assert set(result.labels.tolist()) == {0, 1}
