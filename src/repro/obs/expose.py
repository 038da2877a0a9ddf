"""Exposition: Prometheus text format and JSON snapshots.

Renders a :class:`repro.obs.metrics.MetricsRegistry` the two ways a
production deployment consumes it:

- :func:`render_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, ``name{label="v"} value`` samples,
  cumulative ``_bucket``/``_sum``/``_count`` series for histograms),
- :func:`snapshot` / :func:`write_snapshot` — a JSON object suitable
  for benchmark artifacts and offline diffing.

:func:`bootstrap_families` pre-registers every family in
:data:`repro.obs.families.FAMILIES` with zero values, the way
long-running services register their metrics at startup, so an
exposition taken before any fault or WAL activity still lists every
family a dashboard would scrape.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Optional, Union

from repro.obs.artifacts import capped, write_json
from repro.obs.families import FAMILIES
from repro.obs.metrics import Histogram, MetricsRegistry, get_registry, handle

__all__ = [
    "render_prometheus",
    "snapshot",
    "validate_snapshot",
    "write_snapshot",
    "bootstrap_families",
]


def _fmt_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    # Exposition format: backslash, double-quote and line feed must be
    # escaped inside label values (backslash first, or it re-escapes).
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt_labels(labels: dict[str, str], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in labels.items()]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """The registry in Prometheus text exposition format."""
    registry = registry if registry is not None else get_registry()
    if registry is None:
        return "# metrics disabled\n"
    lines: list[str] = []
    for metric in registry.collect():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for labels, buckets, total, count in metric.series():
                for edge, cumulative in zip(metric.buckets, buckets):
                    le = _fmt_labels(labels, f'le="{_fmt_value(edge)}"')
                    lines.append(
                        f"{metric.name}_bucket{le} {_fmt_value(cumulative)}"
                    )
                rendered = _fmt_labels(labels)
                lines.append(f"{metric.name}_sum{rendered} {_fmt_value(total)}")
                lines.append(f"{metric.name}_count{rendered} {_fmt_value(count)}")
            if not metric.series():
                lines.append(f"{metric.name}_count {_fmt_value(0)}")
        else:
            samples = metric.samples()
            if not samples:
                lines.append(f"{metric.name} 0")
            for labels, value in samples:
                lines.append(
                    f"{metric.name}{_fmt_labels(labels)} {_fmt_value(value)}"
                )
    return "\n".join(lines) + "\n"


def snapshot(registry: Optional[MetricsRegistry] = None) -> dict:
    """The registry as a JSON-serialisable snapshot object."""
    registry = registry if registry is not None else get_registry()
    out: dict = {"metrics": {}}
    if registry is None:
        out["disabled"] = True
        return out
    for metric in registry.collect():
        entry: dict = {
            "type": metric.kind,
            "help": metric.help,
            "labelnames": list(metric.labelnames),
        }
        if isinstance(metric, Histogram):
            entry["buckets"] = [
                "inf" if b == math.inf else b for b in metric.buckets
            ]
            entry["series"] = [
                {"labels": labels, "counts": counts, "sum": total, "count": count}
                for labels, counts, total, count in metric.series()
            ]
        else:
            entry["samples"] = [
                {"labels": labels, "value": value}
                for labels, value in metric.samples()
            ]
        out["metrics"][metric.name] = entry
    return out


def validate_snapshot(payload: object) -> list[str]:
    """Problems with a :func:`snapshot` payload (an empty list = valid).

    ``{"metrics": {}, "disabled": true}`` (metrics off) is valid. Every
    entry must be shaped like its ``type``, and a ``mithrilog_*`` entry
    must be a row of :data:`FAMILIES` of that kind.
    """
    metrics = payload.get("metrics") if isinstance(payload, dict) else None
    if not isinstance(metrics, dict):
        return ["metrics must be an object"]
    problems: list[str] = []
    for name, entry in metrics.items():
        kind = entry.get("type") if isinstance(entry, dict) else None
        lists = ("buckets", "series") if kind == "histogram" else ("samples",)
        if kind not in ("counter", "gauge", "histogram"):
            problems.append(f"{name}: type {kind!r} is not counter, gauge or histogram")
        elif not all(isinstance(entry.get(key), list) for key in lists):
            problems.append(f"{name}: a {kind} needs list-valued {' and '.join(lists)}")
        elif name.startswith("mithrilog_") and (
            name not in FAMILIES or FAMILIES[name].kind != kind
        ):
            problems.append(f"{name}: not a {kind} in the metric-family table")
        if capped(problems):
            break
    return problems


def write_snapshot(
    path: Union[str, Path], registry: Optional[MetricsRegistry] = None
) -> Path:
    """Write the JSON snapshot to ``path``; returns the path."""
    return write_json(path, snapshot(registry), sort_keys=True, newline=False)


def bootstrap_families(registry: Optional[MetricsRegistry] = None) -> None:
    """Pre-register every family in :data:`FAMILIES` (zero-valued).

    Every exposition should carry every family even before the matching
    subsystem has run — a scrape of a freshly started system must not
    look different in shape from a scrape of a busy one.
    """
    for name in FAMILIES:
        handle(name, registry)
