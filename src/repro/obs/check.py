"""Artifact validator: ``python -m repro.obs.check <files...>``.

The CI observability job runs a smoke benchmark that writes a Prometheus
snapshot and a Chrome trace, then runs this module over the artifacts.
It exits non-zero when

- a trace file is missing, malformed, contains no duration events, or
  carries overlapping utilization counter samples on one track,
- a ``.prom`` snapshot is missing any subsystem's metric families (one
  ``mithrilog_<subsystem>_`` prefix per subsystem in
  :data:`repro.obs.families.FAMILIES`),
- a ``.json`` metrics snapshot is not a valid snapshot object,
- a ``.json`` explain report fails :func:`repro.obs.explain
  .validate_explain_report` (malformed plan tree, bottleneck
  attribution not summing to the scan time),
- a ``.json`` query journal fails :func:`repro.obs.journal
  .validate_journal_payload` (broken conservation, unresolvable
  template fingerprints, inconsistent latency decomposition),
- a ``.json`` A/B workload report fails :func:`repro.obs.report
  .validate_ab_report` (missing slices, contradictory flags),
- a ``.json`` incident bundle fails :func:`repro.obs.recorder
  .validate_incident_bundle` (alert timestamps out of order, burn
  rates below threshold, journal evidence outside the window),
- a ``.json`` SLO config fails :func:`repro.obs.slo
  .validate_slo_config` (bad objectives, duplicate names),
- a ``.json`` stream config fails :func:`repro.stream.status
  .validate_stream_config` (unparseable standing queries, duplicate
  names),
- a ``.json`` stream status snapshot fails :func:`repro.stream.status
  .validate_stream_status` (unknown alert states, missing window
  series, non-monotone series timestamps).

Keeping the validator in the library (rather than a shell one-liner in
the workflow) makes the failure mode testable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.obs.explain import (
    ExplainError,
    looks_like_explain,
    validate_explain_report,
)
from repro.obs.families import FAMILIES
from repro.obs.journal import looks_like_journal, validate_journal_payload
from repro.obs.log import get_logger
from repro.obs.recorder import (
    looks_like_incident_bundle,
    validate_incident_bundle,
)
from repro.obs.report import looks_like_ab_report, validate_ab_report
from repro.obs.slo import looks_like_slo_config, validate_slo_config
from repro.obs.tracing import TraceError, validate_chrome_trace
from repro.stream.status import (
    looks_like_stream_config,
    looks_like_stream_status,
    validate_stream_config,
    validate_stream_status,
)

#: Family prefixes a complete Prometheus snapshot must mention: one
#: ``mithrilog_<subsystem>_`` per subsystem that has a row in the table.
REQUIRED_FAMILY_PREFIXES = tuple(
    sorted({"_".join(name.split("_", 2)[:2]) + "_" for name in FAMILIES})
)

LOG = get_logger("repro.obs.check")


def check_prometheus_text(text: str) -> list[str]:
    """Validate snapshot text; returns the list of missing family prefixes."""
    return [p for p in REQUIRED_FAMILY_PREFIXES if p not in text]


def check_file(path: Path) -> Optional[str]:
    """Validate one artifact; returns an error message or ``None`` if ok."""
    if not path.exists():
        return f"{path}: missing"
    if path.suffix == ".prom":
        missing = check_prometheus_text(path.read_text())
        if missing:
            return f"{path}: missing metric families {missing}"
        return None
    if path.suffix == ".json":
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            return f"{path}: invalid JSON ({exc})"
        if "traceEvents" in payload:
            try:
                events = validate_chrome_trace(payload)
            except TraceError as exc:
                return f"{path}: {exc}"
            LOG.debug("trace ok", path=str(path), duration_events=events)
            return None
        if looks_like_explain(payload):
            try:
                nodes = validate_explain_report(payload)
            except ExplainError as exc:
                return f"{path}: {exc}"
            LOG.debug("explain ok", path=str(path), plan_nodes=nodes)
            return None
        if looks_like_journal(payload):
            problems = validate_journal_payload(payload)
            if problems:
                return f"{path}: {'; '.join(problems)}"
            LOG.debug(
                "journal ok",
                path=str(path),
                records=len(payload.get("records", [])),
            )
            return None
        if looks_like_ab_report(payload):
            problems = validate_ab_report(payload)
            if problems:
                return f"{path}: {'; '.join(problems)}"
            LOG.debug(
                "ab report ok",
                path=str(path),
                slices=len(payload.get("slices", [])),
            )
            return None
        if looks_like_incident_bundle(payload):
            problems = validate_incident_bundle(payload)
            if problems:
                return f"{path}: {'; '.join(problems)}"
            LOG.debug(
                "incident bundle ok",
                path=str(path),
                slo=payload.get("slo", {}).get("name"),
            )
            return None
        if looks_like_slo_config(payload):
            problems = validate_slo_config(payload)
            if problems:
                return f"{path}: {'; '.join(problems)}"
            LOG.debug(
                "slo config ok",
                path=str(path),
                slos=len(payload.get("slos", [])),
            )
            return None
        if looks_like_stream_config(payload):
            problems = validate_stream_config(payload)
            if problems:
                return f"{path}: {'; '.join(problems)}"
            LOG.debug(
                "stream config ok",
                path=str(path),
                queries=len(payload.get("queries", [])),
            )
            return None
        if looks_like_stream_status(payload):
            problems = validate_stream_status(payload)
            if problems:
                return f"{path}: {'; '.join(problems)}"
            LOG.debug(
                "stream status ok",
                path=str(path),
                queries=len(payload.get("queries", [])),
            )
            return None
        if "metrics" not in payload:
            return (
                f"{path}: not a Chrome trace, metrics snapshot, explain "
                "report, query journal, A/B report, incident bundle, "
                "SLO config, stream config, or stream status"
            )
        return None
    return f"{path}: unknown artifact type (expected .prom or .json)"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Validate each artifact; exit 0 when all pass, 1 on failures, 2 on misuse."""
    paths = [Path(p) for p in (argv if argv is not None else sys.argv[1:])]
    if not paths:
        LOG.error("usage: python -m repro.obs.check <artifact files...>")
        return 2
    failures = 0
    for path in paths:
        problem = check_file(path)
        if problem is None:
            LOG.info(f"ok: {path}")
        else:
            LOG.error(problem)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
