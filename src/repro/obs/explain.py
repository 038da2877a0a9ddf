"""Query EXPLAIN / EXPLAIN ANALYZE: plan trees and bottleneck attribution.

The interpretation layer over the raw telemetry. PR 2 gave every query
per-stage simulated times and spans; PR 3 gave it a planner, a parallel
executor and a page cache — but nothing answered the operator's actual
question: *why* was this query slow, which simulated resource paced it,
and how far off were the planner's estimates? This module is that
answer, the shape analytics engines ship as ``EXPLAIN ANALYZE``:

- :class:`PlanNode` — one node of the plan tree (the root query, the
  index access, the streaming scan, its four pipeline stages), each
  carrying ``estimated`` values from the cost-based planner and — after
  execution — ``actual`` values from :class:`~repro.system.mithrilog
  .QueryStats`.
- :class:`ExplainReport` — the tree plus the interpretation: per-stage
  **utilization** (busy fraction of the scan window) and **bottleneck
  attribution**. The scan stages stream concurrently, so elapsed scan
  time is their max, not their sum; attribution therefore assigns the
  whole scan window to the stage that paced it (the bottleneck), and
  the attribution values sum exactly to the simulated scan time — the
  invariant :func:`validate_explain_report` and CI enforce.

Determinism contract: everything in :meth:`ExplainReport.canonical` is
a pure function of the store, the query and the seed — identical at any
worker count and with a cold or warm page cache (both only move host
wall-clock). Cache hit/miss counts and measured host-profile wall times
are real observations that *do* vary run to run; they live only in the
full :meth:`ExplainReport.to_dict` rendering.

This module deliberately imports nothing from ``repro.system`` — the
system builds reports through :func:`build_explain` (duck-typed against
``QueryPlan`` / ``QueryOutcome``), keeping the obs layer import-cycle
free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional, Union

from repro.obs.artifacts import write_json

__all__ = [
    "SIGNATURE_KEYS",
    "ExplainError",
    "ExplainReport",
    "PlanNode",
    "build_explain",
    "validate_explain_report",
]


class ExplainError(ValueError):
    """A malformed explain report (bad tree, attribution mismatch)."""


#: Scan pipeline stages in streaming order: (breakdown key, span name).
_SCAN_STAGES = (
    ("flash", "flash_read"),
    ("decompress", "decompress"),
    ("filter", "filter"),
    ("host", "host_transfer"),
)

#: Significant digits kept in canonical renderings. Simulated times are
#: exact IEEE arithmetic, but 12 significant digits keeps golden files
#: stable against representation noise without hiding real changes.
_CANONICAL_DIGITS = "{:.12g}"


def _sig(value: float) -> float:
    """Round to the canonical precision (stable across json round-trips)."""
    return float(_CANONICAL_DIGITS.format(float(value)))


def _round_values(mapping: dict[str, Any]) -> dict[str, Any]:
    return {
        key: _sig(value) if isinstance(value, float) else value
        for key, value in mapping.items()
    }


@dataclass
class PlanNode:
    """One node of a query plan tree.

    ``kind`` classifies the node (``root``, ``access``, ``pipeline``,
    ``stage``); ``estimated`` holds planner predictions, ``actual`` the
    post-execution measurements (``None`` for plain EXPLAIN). Values are
    scalars only — the renderers rely on that.
    """

    name: str
    kind: str
    detail: str = ""
    estimated: dict[str, Any] = field(default_factory=dict)
    actual: Optional[dict[str, Any]] = None
    children: list["PlanNode"] = field(default_factory=list)

    def walk(self) -> Iterator["PlanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["PlanNode"]:
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def to_dict(self, canonical: bool = False) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name, "kind": self.kind}
        if self.detail:
            out["detail"] = self.detail
        if self.estimated:
            out["estimated"] = (
                _round_values(self.estimated) if canonical else dict(self.estimated)
            )
        if self.actual is not None:
            out["actual"] = (
                _round_values(self.actual) if canonical else dict(self.actual)
            )
        if self.children:
            out["children"] = [c.to_dict(canonical=canonical) for c in self.children]
        return out


@dataclass
class ExplainReport:
    """A query's plan tree plus bottleneck interpretation."""

    query: str
    mode: str  #: ``"estimate"`` (EXPLAIN) or ``"analyze"`` (EXPLAIN ANALYZE)
    plan: PlanNode
    bottleneck: Optional[str] = None
    #: stage -> attributed simulated seconds; the pipelined scan window
    #: belongs wholly to its pacing stage, so values sum to scan time.
    attribution: dict[str, float] = field(default_factory=dict)
    #: stage -> busy fraction of the scan window (bottleneck == 1.0).
    utilization: dict[str, float] = field(default_factory=dict)
    #: compiled-program shape (query count, hardware/software mode).
    program: dict[str, Any] = field(default_factory=dict)
    #: deterministic per-stage counts (calls / units) for the scan.
    profile: dict[str, dict[str, int]] = field(default_factory=dict)
    #: page-cache behaviour during the run — real observation, varies
    #: cold vs warm, excluded from the canonical form.
    cache: dict[str, int] = field(default_factory=dict)
    #: measured host wall-clock per stage — excluded from canonical.
    host_profile: dict[str, dict[str, float]] = field(default_factory=dict)

    # -- renderings ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The full report (canonical fields + volatile observations)."""
        out = self.canonical()
        out["profile"] = {k: dict(v) for k, v in sorted(self.profile.items())}
        if self.cache:
            out["cache"] = dict(self.cache)
        if self.host_profile:
            out["host_profile"] = {
                k: dict(v) for k, v in sorted(self.host_profile.items())
            }
        return out

    def canonical(self) -> dict[str, Any]:
        """The deterministic subset: identical for the same store, query
        and seed at any worker count, cache-cold or cache-warm.

        This is what the golden-file stability tests compare.
        """
        out: dict[str, Any] = {
            "query": self.query,
            "mode": self.mode,
            "plan": self.plan.to_dict(canonical=True),
        }
        if self.program:
            out["program"] = dict(self.program)
        if self.mode == "analyze":
            out["bottleneck"] = self.bottleneck
            out["attribution"] = _round_values(self.attribution)
            out["utilization"] = _round_values(self.utilization)
        return out

    def to_json(self, canonical: bool = False) -> str:
        payload = self.canonical() if canonical else self.to_dict()
        return json.dumps(payload, indent=2, sort_keys=True)

    def write(self, path: Union[str, Path]) -> Path:
        """Write the full report as a JSON artifact; returns the path."""
        return write_json(path, self.to_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        """The human tree, the way ``EXPLAIN`` output reads in a shell."""
        title = "EXPLAIN ANALYZE" if self.mode == "analyze" else "EXPLAIN"
        lines = [f"{title} {self.query}"]
        if self.plan.detail:
            lines.append(f"plan: {self.plan.detail}")
        lines.extend(self._render_node(self.plan, prefix=""))
        if self.mode == "analyze":
            lines.append(
                f"bottleneck: {self.bottleneck} "
                f"({100 * self.utilization.get(self.bottleneck, 0.0):.0f}% of "
                "the scan window)"
            )
            if self.cache:
                lines.append(
                    f"cache: {self.cache.get('hits', 0)} hits / "
                    f"{self.cache.get('misses', 0)} misses"
                )
        return "\n".join(lines)

    def _render_node(self, node: PlanNode, prefix: str) -> list[str]:
        lines: list[str] = []
        for i, child in enumerate(node.children):
            last = i == len(node.children) - 1
            joint = "└─ " if last else "├─ "
            extension = "   " if last else "│  "
            lines.append(prefix + joint + self._describe(child))
            lines.extend(self._render_node(child, prefix + extension))
        return lines

    @staticmethod
    def _describe(node: PlanNode) -> str:
        parts = [f"{node.name:<14}"]
        actual = node.actual or {}
        estimated = node.estimated
        time_s = actual.get("time_s")
        if time_s is not None:
            parts.append(f"{time_s * 1e3:8.3f} ms")
        elif "time_s" in estimated:
            parts.append(f"~{estimated['time_s'] * 1e3:7.3f} ms (est)")
        if "utilization" in actual:
            parts.append(f"util {100 * actual['utilization']:3.0f}%")
        if "pages" in estimated or "pages" in actual:
            est = estimated.get("pages")
            act = actual.get("pages")
            if est is not None and act is not None:
                parts.append(f"pages est {est} / actual {act}")
            elif act is not None:
                parts.append(f"{act} pages")
            elif est is not None:
                parts.append(f"~{est} pages (est)")
        for key, unit in (
            ("bytes", "B"),
            ("lines_seen", "lines"),
            ("matches", "matches"),
        ):
            if key in actual:
                parts.append(f"{actual[key]:,} {unit}")
        if node.detail and node.kind != "root":
            parts.append(f"· {node.detail}")
        return "  ".join(parts)


# ---------------------------------------------------------------------------
# Building a report from planner output and query stats
# ---------------------------------------------------------------------------


def build_explain(
    query_text: str,
    plan: Any,
    stats: Any = None,
    matches: Optional[int] = None,
    program: Optional[dict[str, Any]] = None,
    cache: Optional[dict[str, int]] = None,
    host_profile: Optional[dict[str, dict[str, float]]] = None,
) -> ExplainReport:
    """Assemble an :class:`ExplainReport`.

    ``plan`` is a :class:`repro.system.planner.QueryPlan`; ``stats`` a
    :class:`repro.system.mithrilog.QueryStats` when the query actually
    ran (ANALYZE), else ``None`` (plain EXPLAIN). Duck-typed so this
    module never imports the system layer.
    """
    analyzed = stats is not None
    root = PlanNode(
        name="query",
        kind="root",
        detail=(
            f"{'index path' if plan.use_index else 'full scan'} — {plan.reason}"
        ),
        estimated={
            "use_index": bool(plan.use_index),
            "candidate_pages": plan.estimated_candidate_pages,
            "total_pages": plan.total_pages,
            "selectivity": plan.estimated_selectivity,
            "index_path_s": plan.estimated_index_path_s,
            "full_scan_s": plan.estimated_scan_s,
        },
    )
    index_node = PlanNode(
        name="index_lookup",
        kind="access",
        estimated={
            "pages": plan.estimated_candidate_pages,
            "time_s": plan.estimated_index_s,
        },
    )
    scan_node = PlanNode(
        name="scan",
        kind="pipeline",
        estimated={
            "time_s": plan.estimated_index_path_s - plan.estimated_index_s
            if plan.use_index
            else plan.estimated_scan_s,
        },
    )
    root.children = [index_node, scan_node]
    report = ExplainReport(
        query=query_text,
        mode="analyze" if analyzed else "estimate",
        plan=root,
        program=dict(program) if program else {},
    )
    if not analyzed:
        return report

    root.actual = {
        "elapsed_s": stats.elapsed_s,
        "path": "full_scan" if stats.index_full_scan else "index",
    }
    if matches is not None:
        root.actual["matches"] = matches
    index_node.actual = {
        "pages": stats.candidate_pages,
        "time_s": stats.index_time_s,
        "tokens_looked_up": stats.index_tokens_looked_up,
        "root_visits": stats.index_root_visits,
        "full_scan": bool(stats.index_full_scan),
        "pruned_pages": stats.total_pages - stats.candidate_pages,
    }
    breakdown = stats.breakdown
    scan_time = stats.scan_time_s
    bottleneck = stats.bottleneck
    scan_node.actual = {
        "time_s": scan_time,
        "pages": stats.pages_read,
        "bottleneck": bottleneck,
    }
    stage_values = {
        "flash_read": {
            "bytes": stats.bytes_from_flash, "pages": stats.pages_read
        },
        "decompress": {"bytes": stats.bytes_decompressed},
        "filter": {
            "lines_seen": stats.lines_seen, "lines_kept": stats.lines_kept
        },
        "host_transfer": {"bytes": stats.bytes_to_host},
    }
    for stage_key, span_name in _SCAN_STAGES:
        stage_time = breakdown[stage_key]
        util = stage_time / scan_time if scan_time > 0 else 0.0
        actual: dict[str, Any] = {"time_s": stage_time, "utilization": util}
        actual.update(stage_values[span_name])
        scan_node.children.append(
            PlanNode(name=span_name, kind="stage", actual=actual)
        )
        report.utilization[stage_key] = util
        # the streaming pipeline's window belongs to the stage pacing it
        report.attribution[stage_key] = (
            scan_time if stage_key == bottleneck else 0.0
        )
    report.bottleneck = bottleneck
    report.profile = dict(getattr(stats, "profile", {}) or {})
    if cache:
        report.cache = dict(cache)
    if host_profile:
        report.host_profile = dict(host_profile)
    return report


# ---------------------------------------------------------------------------
# Artifact validation (what `python -m repro.obs.check` runs)
# ---------------------------------------------------------------------------


#: An explain report carries no ``kind``; these keys are its signature.
SIGNATURE_KEYS = ("query", "mode", "plan")


def validate_explain_report(payload: dict[str, Any]) -> int:
    """Check a serialised explain report; returns the plan-node count.

    Raises :class:`ExplainError` when the tree is malformed or — for
    ANALYZE reports — when the bottleneck attribution does not sum to
    the scan node's simulated time (the invariant the acceptance tests
    and CI artifact validation pin down).
    """
    if not isinstance(payload, dict) or not all(
        key in payload for key in SIGNATURE_KEYS
    ):
        raise ExplainError("not an explain report (missing query/mode/plan)")
    if payload["mode"] not in ("estimate", "analyze"):
        raise ExplainError(f"unknown explain mode {payload['mode']!r}")

    def walk(node: Any) -> Iterator[dict[str, Any]]:
        if not isinstance(node, dict) or "name" not in node or "kind" not in node:
            raise ExplainError(f"malformed plan node: {node!r}")
        yield node
        for child in node.get("children", ()):
            yield from walk(child)

    nodes = list(walk(payload["plan"]))
    if payload["mode"] == "analyze":
        scan = next((n for n in nodes if n["name"] == "scan"), None)
        if scan is None or "actual" not in scan:
            raise ExplainError("analyze report lacks an executed scan node")
        scan_time = float(scan["actual"].get("time_s", 0.0))
        attribution = payload.get("attribution")
        if not isinstance(attribution, dict) or not attribution:
            raise ExplainError("analyze report lacks bottleneck attribution")
        attributed = sum(float(v) for v in attribution.values())
        tolerance = max(1e-12, 1e-6 * max(scan_time, attributed))
        if abs(attributed - scan_time) > tolerance:
            raise ExplainError(
                f"attribution sums to {attributed!r}, scan time is "
                f"{scan_time!r}"
            )
        for stage, value in payload.get("utilization", {}).items():
            if not -1e-9 <= float(value) <= 1.0 + 1e-9:
                raise ExplainError(
                    f"utilization for {stage!r} outside [0, 1]: {value!r}"
                )
    return len(nodes)
