"""A/B workload reports: did a configuration change help *every* slice?

The failure mode this module exists for: a change (bigger cache, new
index strategy, a scheduler policy) improves aggregate goodput while
quietly destroying one tenant's p99 or starving one template — the
aggregate win *hides* the per-slice regression. The report builder
takes two mined :class:`~repro.obs.workload.WorkloadProfile`
objects (baseline **A**, candidate **B**) produced from journals of the
same seeded workload under the two configurations, diffs every slice
they share, and flags exactly those hidden regressions.

Artifacts render two ways: JSON (``kind: mithrilog_ab_report``, schema-
checked by ``repro.obs.check``) for machines, and markdown for humans —
the shape ``benchmarks/bench_workload.py`` writes and CI uploads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.obs.artifacts import capped, envelope_problems, write_json
from repro.obs.workload import DIMENSIONS, WorkloadProfile, drift

__all__ = [
    "AB_REPORT_KIND",
    "ABReport",
    "ReportError",
    "SliceDelta",
    "build_ab_report",
    "validate_ab_report",
]

AB_REPORT_KIND = "mithrilog_ab_report"
AB_REPORT_VERSION = 1

#: Ignore latency movements smaller than this (simulated ms) — float
#: noise from reordered arithmetic must not flag a regression.
LATENCY_EPSILON_MS = 1e-6


class ReportError(ValueError):
    """An A/B report artifact that cannot be trusted."""


def _ratio(before: float, after: float) -> Optional[float]:
    if before <= 0:
        return None
    return after / before


@dataclass
class SliceDelta:
    """One slice, measured under both configurations."""

    dimension: str
    value: str
    count_a: int
    count_b: int
    goodput_a_qps: float
    goodput_b_qps: float
    p50_a_ms: float
    p50_b_ms: float
    p99_a_ms: float
    p99_b_ms: float
    loss_rate_a: float
    loss_rate_b: float
    regressed: bool = False  #: this slice got materially worse under B
    improved: bool = False  #: this slice got materially better under B
    hidden: bool = False  #: regressed while the aggregate improved

    @property
    def goodput_ratio(self) -> Optional[float]:
        return _ratio(self.goodput_a_qps, self.goodput_b_qps)

    @property
    def p99_delta_ms(self) -> float:
        return self.p99_b_ms - self.p99_a_ms

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "value": self.value,
            "count_a": self.count_a,
            "count_b": self.count_b,
            "goodput_a_qps": round(self.goodput_a_qps, 4),
            "goodput_b_qps": round(self.goodput_b_qps, 4),
            "goodput_ratio": (
                round(self.goodput_ratio, 4)
                if self.goodput_ratio is not None
                else None
            ),
            "p50_a_ms": round(self.p50_a_ms, 4),
            "p50_b_ms": round(self.p50_b_ms, 4),
            "p99_a_ms": round(self.p99_a_ms, 4),
            "p99_b_ms": round(self.p99_b_ms, 4),
            "p99_delta_ms": round(self.p99_delta_ms, 4),
            "loss_rate_a": round(self.loss_rate_a, 6),
            "loss_rate_b": round(self.loss_rate_b, 6),
            "regressed": self.regressed,
            "improved": self.improved,
            "hidden": self.hidden,
        }


@dataclass
class ABReport:
    """The full comparison: aggregate deltas plus every shared slice."""

    label_a: str
    label_b: str
    aggregate: SliceDelta
    slices: list[SliceDelta] = field(default_factory=list)
    drift: Optional[dict] = None  #: template-mix drift between the runs
    threshold: float = 0.2  #: relative change that counts as material
    min_count: int = 1  #: slices thinner than this are reported unflagged

    @property
    def aggregate_improved(self) -> bool:
        return self.aggregate.improved

    @property
    def hidden_regressions(self) -> list[SliceDelta]:
        """Slices that got worse while the aggregate got better."""
        return [s for s in self.slices if s.hidden]

    @property
    def improved_slices(self) -> list[SliceDelta]:
        return [s for s in self.slices if s.improved]

    @property
    def regressed_slices(self) -> list[SliceDelta]:
        return [s for s in self.slices if s.regressed]

    def to_payload(self) -> dict:
        return {
            "kind": AB_REPORT_KIND,
            "version": AB_REPORT_VERSION,
            "label_a": self.label_a,
            "label_b": self.label_b,
            "threshold": self.threshold,
            "min_count": self.min_count,
            "aggregate": self.aggregate.to_dict(),
            "aggregate_improved": self.aggregate_improved,
            "hidden_regressions": [s.to_dict() for s in self.hidden_regressions],
            "slices": [s.to_dict() for s in self.slices],
            "drift": self.drift,
        }

    def to_json(self, indent: Optional[int] = 1) -> str:
        return json.dumps(self.to_payload(), indent=indent)

    def write_json(self, path: Union[str, Path]) -> Path:
        return write_json(path, self.to_payload())

    # -- markdown ---------------------------------------------------------

    def render_markdown(self, top: int = 12) -> str:
        """The human-facing report, most-moved slices first."""
        agg = self.aggregate
        lines = [
            f"# A/B workload report: `{self.label_a}` vs `{self.label_b}`",
            "",
            "## Aggregate",
            "",
            "| metric | A | B | delta |",
            "|---|---:|---:|---:|",
            _md_row(
                "goodput (q/s)", agg.goodput_a_qps, agg.goodput_b_qps, "qps"
            ),
            _md_row("p50 (ms)", agg.p50_a_ms, agg.p50_b_ms, "ms"),
            _md_row("p99 (ms)", agg.p99_a_ms, agg.p99_b_ms, "ms"),
            _md_row(
                "loss rate",
                agg.loss_rate_a,
                agg.loss_rate_b,
                "rate",
            ),
            "",
            f"Aggregate verdict: "
            f"**{'improved' if agg.improved else 'regressed' if agg.regressed else 'unchanged'}** "
            f"(material-change threshold {100 * self.threshold:.0f}%).",
            "",
        ]
        if self.hidden_regressions:
            lines += [
                "## ⚠ Hidden regressions",
                "",
                "Slices that got worse while the aggregate got better:",
                "",
            ]
            lines += _slice_table(self.hidden_regressions[:top])
        ranked = sorted(
            self.slices,
            key=lambda s: (
                -abs(s.p99_delta_ms),
                s.dimension,
                s.value,
            ),
        )
        lines += ["## Per-slice deltas", ""]
        lines += _slice_table(ranked[:top])
        if len(ranked) > top:
            lines.append(f"... {len(ranked) - top} more slices in the JSON artifact.")
        if self.drift:
            verdict = (
                "drifted — the two runs did not offer the same workload; "
                "treat per-slice deltas with suspicion"
                if self.drift.get("drifted")
                else "stable — the runs offered comparable workloads"
            )
            lines += [
                "",
                "## Workload drift",
                "",
                f"Template-mix L1 distance: "
                f"{self.drift.get('l1_share_distance', 0):.4f} ({verdict}).",
            ]
        return "\n".join(lines) + "\n"

    def write_markdown(self, path: Union[str, Path], top: int = 12) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.render_markdown(top))
        return path


def _md_row(name: str, a: float, b: float, unit: str) -> str:
    if unit == "rate":
        delta = b - a
        return (
            f"| {name} | {100 * a:.1f}% | {100 * b:.1f}% | "
            f"{100 * delta:+.1f}pp |"
        )
    delta = b - a
    return f"| {name} | {a:,.2f} | {b:,.2f} | {delta:+,.2f} |"


def _slice_table(deltas: list[SliceDelta]) -> list[str]:
    rows = [
        "| slice | n(A→B) | goodput A→B (q/s) | p99 A→B (ms) | flags |",
        "|---|---:|---:|---:|---|",
    ]
    for s in deltas:
        flags = []
        if s.hidden:
            flags.append("HIDDEN-REGRESSION")
        elif s.regressed:
            flags.append("regressed")
        if s.improved:
            flags.append("improved")
        rows.append(
            f"| {s.dimension}:{s.value} | {s.count_a}→{s.count_b} "
            f"| {s.goodput_a_qps:,.0f}→{s.goodput_b_qps:,.0f} "
            f"| {s.p99_a_ms:.3f}→{s.p99_b_ms:.3f} "
            f"| {' '.join(flags) or '—'} |"
        )
    rows.append("")
    return rows


def _classify(delta: SliceDelta, threshold: float, min_count: int) -> None:
    """Set improved/regressed on a delta, in place.

    A slice *improves* when goodput rises or p99 falls materially (and
    the other axis does not materially worsen); it *regresses* when
    goodput falls or p99 rises materially. Thin slices (fewer than
    ``min_count`` requests on either side) stay unflagged: one request's
    luck is not evidence.
    """
    if min(delta.count_a, delta.count_b) < min_count:
        return
    goodput_up = goodput_down = False
    ratio = delta.goodput_ratio
    if ratio is not None:
        goodput_up = ratio >= 1 + threshold
        goodput_down = ratio <= 1 - threshold
    elif delta.goodput_b_qps > 0:
        goodput_up = True  # served nothing before, something now
    p99_up = p99_down = False
    if delta.p99_a_ms > 0 and delta.p99_b_ms > 0:
        p99_up = (
            delta.p99_delta_ms > LATENCY_EPSILON_MS
            and delta.p99_b_ms >= delta.p99_a_ms * (1 + threshold)
        )
        p99_down = (
            delta.p99_delta_ms < -LATENCY_EPSILON_MS
            and delta.p99_b_ms <= delta.p99_a_ms * (1 - threshold)
        )
    delta.regressed = goodput_down or p99_up
    delta.improved = (goodput_up or p99_down) and not delta.regressed


def _delta_from(
    dimension: str,
    value: str,
    a: Optional[object],
    b: Optional[object],
    profile_a: WorkloadProfile,
    profile_b: WorkloadProfile,
) -> SliceDelta:
    def num(stats, attr, default=0.0):
        return getattr(stats, attr) if stats is not None else default

    return SliceDelta(
        dimension=dimension,
        value=value,
        count_a=int(num(a, "count", 0)),
        count_b=int(num(b, "count", 0)),
        goodput_a_qps=(
            profile_a.slice_goodput_qps(a) if a is not None else 0.0
        ),
        goodput_b_qps=(
            profile_b.slice_goodput_qps(b) if b is not None else 0.0
        ),
        p50_a_ms=num(a, "p50_ms"),
        p50_b_ms=num(b, "p50_ms"),
        p99_a_ms=num(a, "p99_ms"),
        p99_b_ms=num(b, "p99_ms"),
        loss_rate_a=num(a, "loss_rate"),
        loss_rate_b=num(b, "loss_rate"),
    )


def build_ab_report(
    profile_a: WorkloadProfile,
    profile_b: WorkloadProfile,
    label_a: str = "baseline",
    label_b: str = "candidate",
    threshold: float = 0.2,
    min_count: int = 2,
    dimensions: tuple[str, ...] = ("tenant", "template", "stage"),
) -> ABReport:
    """Diff two mined profiles into an :class:`ABReport`.

    ``threshold`` is the relative change that counts as material (0.2 =
    20%); ``min_count`` suppresses flags on slices too thin to judge.
    The ``outcome`` dimension is excluded from flagging by default —
    outcome counts move by design when admission behaviour changes —
    but any :data:`~repro.obs.workload.DIMENSIONS` subset works.
    """
    for dimension in dimensions:
        if dimension not in DIMENSIONS:
            raise ReportError(f"unknown report dimension {dimension!r}")
    aggregate = _delta_from(
        "total", "all", profile_a.total, profile_b.total, profile_a, profile_b
    )
    _classify(aggregate, threshold, min_count=1)
    report = ABReport(
        label_a=label_a,
        label_b=label_b,
        aggregate=aggregate,
        threshold=threshold,
        min_count=min_count,
        drift=drift(profile_a, profile_b).to_dict(),
    )
    for dimension in dimensions:
        slices_a = profile_a.slices(dimension)
        slices_b = profile_b.slices(dimension)
        for value in sorted(set(slices_a) | set(slices_b)):
            delta = _delta_from(
                dimension,
                value,
                slices_a.get(value),
                slices_b.get(value),
                profile_a,
                profile_b,
            )
            _classify(delta, threshold, min_count)
            delta.hidden = delta.regressed and aggregate.improved
            report.slices.append(delta)
    return report


_REQUIRED_SLICE_KEYS = (
    "dimension",
    "value",
    "count_a",
    "count_b",
    "goodput_a_qps",
    "goodput_b_qps",
    "p99_a_ms",
    "p99_b_ms",
    "regressed",
    "improved",
    "hidden",
)


def validate_ab_report(payload: object) -> list[str]:
    """Schema check for an exported A/B report; returns problems."""
    problems = envelope_problems(payload, AB_REPORT_KIND, AB_REPORT_VERSION)
    if problems:
        return problems
    assert isinstance(payload, dict)
    for key in ("label_a", "label_b"):
        if not isinstance(payload.get(key), str) or not payload.get(key):
            problems.append(f"{key} missing")
    aggregate = payload.get("aggregate")
    if not isinstance(aggregate, dict):
        problems.append("aggregate delta missing")
    slices = payload.get("slices")
    if not isinstance(slices, list):
        return problems + ["slices list missing"]
    hidden_declared = payload.get("hidden_regressions")
    if not isinstance(hidden_declared, list):
        return problems + ["hidden_regressions list missing"]
    hidden_counted = 0
    for i, entry in enumerate(slices):
        if not isinstance(entry, dict):
            problems.append(f"slice {i}: not an object")
            continue
        missing = [k for k in _REQUIRED_SLICE_KEYS if k not in entry]
        if missing:
            problems.append(f"slice {i}: missing keys {missing}")
            continue
        if entry["hidden"]:
            hidden_counted += 1
            if not entry["regressed"]:
                problems.append(
                    f"slice {i}: hidden flag without a regression"
                )
        if entry["improved"] and entry["regressed"]:
            problems.append(
                f"slice {i}: cannot be both improved and regressed"
            )
        if capped(problems):
            break
    if hidden_counted != len(hidden_declared):
        problems.append(
            f"hidden_regressions count {len(hidden_declared)} does not "
            f"match the {hidden_counted} hidden slices"
        )
    return problems
