"""Seeded page sampling and match-count estimation for approximate scans.

Historical log exploration rarely needs exact counts on the first few
iterations of a query (logservatory's *percentage sampling* mode, see
SNIPPETS.md §1): scanning a deterministic fraction of the candidate
pages and returning an estimate with a confidence interval answers
"roughly how often does this happen?" at a fraction of the accelerator
cost. The same mode doubles as the service's approximate admission
class: under overload a shed becomes a cheap sampled answer instead
(see ``docs/STREAMING.md``).

Two properties matter more than the estimator itself:

- **Determinism** — whether a page is in the sample depends only on
  ``(seed, template fingerprint, page id)``, hashed with sha1 (stable
  across processes and ``PYTHONHASHSEED``). The selection happens in
  the parent *before* the scan executor partitions pages over workers,
  so results are worker-count- and kernel-invariant and any run can be
  replayed exactly (pinned by ``tests/differential``).
- **Honest uncertainty** — each page is an independent Bernoulli draw
  at rate ``fraction``, so the Horvitz–Thompson estimate of the total
  match count is ``seen / fraction`` and, modelling per-page counts as
  roughly even (template-interleaved ingest spreads a template's lines
  across pages), its variance is ``seen * (1 - f) / f**2``. The normal
  approximation gives the reported interval; stdlib ``math`` only — the
  estimator must work on the no-numpy CI leg.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import QueryError

#: two-sided z-scores for the confidence levels the CLI exposes
_Z_SCORES = {0.80: 1.2816, 0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}

DEFAULT_CONFIDENCE = 0.95


def page_in_sample(
    seed: int, fingerprint: str, page_addr: int, fraction: float
) -> bool:
    """Is ``page_addr`` in the sample for this (seed, query) pair?

    The sha1 of ``seed:fingerprint:page_addr`` is mapped to [0, 1);
    the page is sampled iff it lands below ``fraction``. No RNG state:
    the decision is a pure function, so it cannot depend on scan order,
    worker count, or kernel.
    """
    digest = hashlib.sha1(
        f"{seed}:{fingerprint}:{page_addr}".encode()
    ).digest()
    draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return draw < fraction


def sample_pages(
    candidates: Sequence[int], seed: int, fingerprint: str, fraction: float
) -> list[int]:
    """The deterministic sampled subset of ``candidates``, order kept.

    Always keeps at least one page when there are candidates: an empty
    sample would silently turn "estimate" into "no data".
    """
    if not 0.0 < fraction < 1.0:
        raise QueryError("sample fraction must be in (0, 1)")
    kept = [
        page
        for page in candidates
        if page_in_sample(seed, fingerprint, page, fraction)
    ]
    if not kept and candidates:
        # deterministic fallback: the candidate with the smallest draw
        kept = [
            min(
                candidates,
                key=lambda page: hashlib.sha1(
                    f"{seed}:{fingerprint}:{page}".encode()
                ).digest(),
            )
        ]
    return kept


@dataclass(frozen=True)
class SampleEstimate:
    """One query's sampled-scan answer: estimate plus uncertainty."""

    matches_seen: int  #: raw matches on the sampled pages
    pages_scanned: int
    pages_total: int  #: candidate pages before sampling
    fraction: float  #: the *configured* Bernoulli sampling rate
    estimate: float  #: Horvitz–Thompson estimate of the true count
    ci_low: float
    ci_high: float
    confidence: float  #: nominal two-sided coverage of [ci_low, ci_high]

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def relative_error(self, true_count: int) -> float:
        """|estimate - truth| / truth, with a floor of one match."""
        return abs(self.estimate - true_count) / max(true_count, 1)

    def covers(self, true_count: int) -> bool:
        return self.ci_low <= true_count <= self.ci_high

    def to_dict(self) -> dict:
        return {
            "matches_seen": self.matches_seen,
            "pages_scanned": self.pages_scanned,
            "pages_total": self.pages_total,
            "fraction": self.fraction,
            "estimate": round(self.estimate, 4),
            "ci_low": round(self.ci_low, 4),
            "ci_high": round(self.ci_high, 4),
            "confidence": self.confidence,
        }


def estimate_matches(
    matches_seen: int,
    pages_scanned: int,
    pages_total: int,
    fraction: float,
    confidence: float = DEFAULT_CONFIDENCE,
) -> SampleEstimate:
    """Scale a sampled match count back to the full candidate set.

    Uses the *realised* sampling rate (``pages_scanned/pages_total``)
    for the point estimate — it is known exactly, and conditioning on
    it removes the variance of the sample size itself — and the normal
    approximation ``±z * sqrt(seen * (1 - f)) / f`` for the interval.
    With zero matches seen, the interval upper bound falls back to the
    rule-of-three bound (3/f) instead of a degenerate [0, 0].
    """
    if pages_total <= 0 or pages_scanned <= 0:
        return SampleEstimate(
            matches_seen=matches_seen,
            pages_scanned=pages_scanned,
            pages_total=pages_total,
            fraction=fraction,
            estimate=float(matches_seen),
            ci_low=float(matches_seen),
            ci_high=float(matches_seen),
            confidence=confidence,
        )
    z = _Z_SCORES.get(round(confidence, 2))
    if z is None:
        raise QueryError(
            f"unsupported confidence {confidence}; "
            f"choose from {sorted(_Z_SCORES)}"
        )
    realised = pages_scanned / pages_total
    if pages_scanned >= pages_total:
        # degenerate sample: every candidate scanned, the count is exact
        exact = float(matches_seen)
        return SampleEstimate(
            matches_seen=matches_seen,
            pages_scanned=pages_scanned,
            pages_total=pages_total,
            fraction=fraction,
            estimate=exact,
            ci_low=exact,
            ci_high=exact,
            confidence=confidence,
        )
    estimate = matches_seen / realised
    if matches_seen == 0:
        half = 0.0
        hi = 3.0 / realised  # rule of three: 95%-ish bound on a zero count
    else:
        half = z * math.sqrt(matches_seen * (1.0 - realised)) / realised
        hi = estimate + half
    return SampleEstimate(
        matches_seen=matches_seen,
        pages_scanned=pages_scanned,
        pages_total=pages_total,
        fraction=fraction,
        estimate=estimate,
        ci_low=max(0.0, estimate - half),
        ci_high=hi,
        confidence=confidence,
    )
