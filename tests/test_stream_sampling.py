"""Tests for seeded page sampling and the Horvitz–Thompson estimator.

The two properties ``docs/STREAMING.md`` promises: sample membership is
a pure function of ``(seed, fingerprint, page id)`` — no RNG state, no
dependence on the rest of the candidate set — and the reported interval
is honest about its own uncertainty (exact when degenerate, rule-of-
three when empty).
"""

import math

import pytest

from repro.core.query import parse_query
from repro.datasets.synthetic import generator_for
from repro.errors import QueryError
from repro.stream.sampling import (
    estimate_matches,
    page_in_sample,
    sample_pages,
)
from repro.system.mithrilog import MithriLogSystem


class TestPageSelection:
    def test_membership_is_a_pure_function(self):
        decisions = [
            page_in_sample(7, "abc123", page, 0.3) for page in range(50)
        ]
        again = [
            page_in_sample(7, "abc123", page, 0.3) for page in range(50)
        ]
        assert decisions == again
        assert any(decisions) and not all(decisions)

    def test_seed_and_fingerprint_shift_the_sample(self):
        pages = list(range(300))
        base = sample_pages(pages, seed=0, fingerprint="q", fraction=0.25)
        reseeded = sample_pages(pages, seed=1, fingerprint="q", fraction=0.25)
        requeried = sample_pages(pages, seed=0, fingerprint="r", fraction=0.25)
        assert base != reseeded
        assert base != requeried

    def test_fraction_controls_the_sampling_rate(self):
        pages = list(range(2000))
        kept = sample_pages(pages, seed=3, fingerprint="q", fraction=0.2)
        # Bernoulli(0.2) over 2000 draws: ~400 expected, sd ~18
        assert 300 < len(kept) < 500

    def test_membership_ignores_other_candidates(self):
        # the same page is in or out regardless of what else is offered —
        # this is what makes the scan worker-partition-invariant
        pages = list(range(100))
        kept = set(sample_pages(pages, seed=5, fingerprint="q", fraction=0.4))
        for lo in (0, 25, 50):
            window = pages[lo : lo + 25]
            sub = sample_pages(window, seed=5, fingerprint="q", fraction=0.4)
            if set(window) & kept:
                assert set(sub) == set(window) & kept

    def test_order_preserved(self):
        pages = [9, 2, 31, 4, 17, 80, 5]
        kept = sample_pages(pages, seed=1, fingerprint="q", fraction=0.6)
        positions = [pages.index(p) for p in kept]
        assert positions == sorted(positions)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_degenerate_fractions_rejected(self, fraction):
        with pytest.raises(QueryError):
            sample_pages([1, 2, 3], seed=0, fingerprint="q", fraction=fraction)

    def test_never_returns_an_empty_sample(self):
        pages = [10, 11, 12]
        kept = sample_pages(pages, seed=0, fingerprint="q", fraction=1e-9)
        assert len(kept) == 1
        # the fallback is deterministic too
        assert kept == sample_pages(
            pages, seed=0, fingerprint="q", fraction=1e-9
        )

    def test_empty_candidates_stay_empty(self):
        assert sample_pages([], seed=0, fingerprint="q", fraction=0.5) == []


class TestEstimator:
    def test_scales_by_the_realised_fraction(self):
        est = estimate_matches(
            matches_seen=10, pages_scanned=25, pages_total=100, fraction=0.25
        )
        assert est.estimate == pytest.approx(40.0)
        half = 1.96 * math.sqrt(10 * 0.75) / 0.25
        assert est.half_width == pytest.approx(half)
        assert est.ci_low == pytest.approx(40.0 - half)
        assert est.ci_high == pytest.approx(40.0 + half)
        assert est.covers(40)

    def test_full_sample_is_exact(self):
        est = estimate_matches(
            matches_seen=17, pages_scanned=50, pages_total=50, fraction=0.9
        )
        assert est.estimate == 17.0
        assert est.ci_low == est.ci_high == 17.0
        assert est.covers(17) and not est.covers(18)

    def test_zero_matches_uses_rule_of_three(self):
        est = estimate_matches(
            matches_seen=0, pages_scanned=20, pages_total=100, fraction=0.2
        )
        assert est.estimate == 0.0
        assert est.ci_low == 0.0
        assert est.ci_high == pytest.approx(3.0 / 0.2)
        assert est.covers(0) and est.covers(10)

    def test_no_pages_degenerates_to_the_raw_count(self):
        est = estimate_matches(
            matches_seen=0, pages_scanned=0, pages_total=0, fraction=0.5
        )
        assert est.estimate == 0.0
        assert est.half_width == 0.0

    def test_unsupported_confidence_rejected(self):
        with pytest.raises(QueryError):
            estimate_matches(1, 10, 100, 0.1, confidence=0.5)

    @pytest.mark.parametrize("confidence", [0.80, 0.90, 0.95, 0.99])
    def test_supported_confidence_levels(self, confidence):
        est = estimate_matches(5, 10, 100, 0.1, confidence=confidence)
        assert est.confidence == confidence
        assert est.ci_low <= est.estimate <= est.ci_high

    def test_wider_confidence_widens_the_interval(self):
        narrow = estimate_matches(5, 10, 100, 0.1, confidence=0.80)
        wide = estimate_matches(5, 10, 100, 0.1, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_relative_error_floors_at_one_match(self):
        est = estimate_matches(10, 25, 100, 0.25)
        assert est.relative_error(40) == pytest.approx(0.0)
        assert est.relative_error(80) == pytest.approx(0.5)
        # truth of zero would divide by zero without the floor
        assert est.relative_error(0) == pytest.approx(est.estimate)

    def test_interval_never_goes_negative(self):
        est = estimate_matches(1, 30, 100, 0.3)
        assert est.ci_low >= 0.0

    def test_to_dict_is_json_ready(self):
        payload = estimate_matches(10, 25, 100, 0.25).to_dict()
        assert payload["estimate"] == pytest.approx(40.0)
        assert set(payload) == {
            "matches_seen",
            "pages_scanned",
            "pages_total",
            "fraction",
            "estimate",
            "ci_low",
            "ci_high",
            "confidence",
        }


class TestSampledPass:
    """What a sampled pass's seed decides; its lines and counts are the
    ``sampled`` row of ``tests/differential/test_routes.py``."""

    def test_reads_fewer_pages_and_its_seed_moves_them(self):
        system = MithriLogSystem(seed=3, cache_pages=0)
        system.ingest(generator_for("Liberty2", seed=3).generate(3000))
        query = parse_query("session")
        exact = system.query(query)
        drawn = [system.query(query, sample_fraction=0.3, sample_seed=s) for s in (0, 0, 99)]
        system.close()
        assert exact.estimates is None
        assert all(0 < o.stats.pages_sampled < exact.stats.candidate_pages for o in drawn)
        same, again, other = [(o.matched_lines, o.estimates) for o in drawn]
        assert same == again != other
        estimate, truth = drawn[0].estimates[0], exact.per_query_counts[0]
        assert estimate.pages_total == exact.stats.candidate_pages
        assert estimate.covers(truth) or estimate.relative_error(truth) < 1.0
