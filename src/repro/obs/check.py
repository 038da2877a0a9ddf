"""Artifact validator: ``python -m repro.obs.check <files...>``.

CI jobs write artifacts (Prometheus snapshots, traces, journals, incident
bundles, ...) and run this module over them. It exits non-zero when

- a file is missing, is not JSON, or is not a ``.prom`` / ``.json`` file,
- a ``.prom`` snapshot is missing any subsystem's metric families (one
  ``mithrilog_<subsystem>_`` prefix per subsystem in
  :data:`repro.obs.families.FAMILIES`),
- a ``.json`` file is none of the kinds in :data:`ARTIFACTS`, or fails
  the validator of the kind it is. The kinds, in dispatch order:
  {kinds}.

Each row of :data:`ARTIFACTS` names the validator that owns a kind's
invariants (conservation, attribution sum, window bounds, ...); a new
artifact kind is one more row. Keeping the validator in the library
(rather than a shell one-liner in the workflow) makes the failure mode
testable.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.obs.artifacts import read_json
from repro.obs.explain import SIGNATURE_KEYS, ExplainError, validate_explain_report
from repro.obs.expose import validate_snapshot
from repro.obs.families import FAMILIES
from repro.obs.journal import JOURNAL_KIND, validate_journal_payload
from repro.obs.log import get_logger
from repro.obs.recorder import INCIDENT_KIND, validate_incident_bundle
from repro.obs.report import AB_REPORT_KIND, validate_ab_report
from repro.obs.slo import SLO_CONFIG_KIND, validate_slo_config
from repro.obs.tracing import TraceError, validate_chrome_trace
from repro.stream.status import (
    STREAM_CONFIG_KIND,
    STREAM_STATUS_KIND,
    validate_stream_config,
    validate_stream_status,
)

#: Family prefixes a complete Prometheus snapshot must mention: one
#: ``mithrilog_<subsystem>_`` per subsystem that has a row in the table.
REQUIRED_FAMILY_PREFIXES = tuple(
    sorted({"_".join(name.split("_", 2)[:2]) + "_" for name in FAMILIES})
)

LOG = get_logger("repro.obs.check")


class Artifact(NamedTuple):
    """One JSON artifact kind. Callables take the top-level JSON object."""

    name: str
    matches: Callable[[dict], bool]  #: is the payload of this kind?
    problems: Callable[[dict], list[str]]  #: empty list = valid
    summary: Callable[[dict], dict[str, Any]]  #: log fields of a valid payload


def _kind(kind: str) -> Callable[[dict], bool]:
    return lambda payload: payload.get("kind") == kind


def _count(key: str) -> Callable[[dict], dict[str, Any]]:
    return lambda payload: {key: len(payload[key])}


def _raising(
    validate: Callable[[dict], Any], error_cls: type[Exception]
) -> Callable[[dict], list[str]]:
    """Adapt a validator that raises ``error_cls`` to one that lists problems."""

    def problems(payload: dict) -> list[str]:
        try:
            validate(payload)
        except error_cls as exc:
            return [str(exc)]
        return []

    return problems


#: Every JSON artifact kind, in dispatch order (first match wins). The two
#: raising validators return a count; their ``summary`` calls them for it.
ARTIFACTS: tuple[Artifact, ...] = (
    Artifact(
        "Chrome trace", lambda p: "traceEvents" in p,
        _raising(validate_chrome_trace, TraceError),
        lambda p: {"duration_events": validate_chrome_trace(p)},
    ),
    Artifact(
        "explain report", lambda p: all(key in p for key in SIGNATURE_KEYS),
        _raising(validate_explain_report, ExplainError),
        lambda p: {"plan_nodes": validate_explain_report(p)},
    ),
    Artifact("query journal", _kind(JOURNAL_KIND), validate_journal_payload, _count("records")),
    Artifact("A/B report", _kind(AB_REPORT_KIND), validate_ab_report, _count("slices")),
    Artifact(
        "incident bundle", _kind(INCIDENT_KIND), validate_incident_bundle,
        lambda p: {"slo": p["slo"].get("name")},
    ),
    Artifact("SLO config", _kind(SLO_CONFIG_KIND), validate_slo_config, _count("slos")),
    Artifact("stream config", _kind(STREAM_CONFIG_KIND), validate_stream_config, _count("queries")),
    Artifact("stream status", _kind(STREAM_STATUS_KIND), validate_stream_status, _count("queries")),
    # a snapshot has no kind; an artifact with one (an incident bundle
    # embeds a snapshot under "metrics") is never a bare snapshot
    Artifact(
        "metrics snapshot", lambda p: "metrics" in p and "kind" not in p,
        validate_snapshot, _count("metrics"),
    ),
)

_KINDS = ", ".join(a.name for a in ARTIFACTS[:-1]) + f" or {ARTIFACTS[-1].name}"
__doc__ = (__doc__ or "").format(kinds=_KINDS)  # None under -OO


def identify(payload: object) -> Optional[Artifact]:
    """The row a parsed JSON payload belongs to, or ``None``."""
    if not isinstance(payload, dict):
        return None
    return next((a for a in ARTIFACTS if a.matches(payload)), None)


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
    if path.suffix != ".json":
        return f"{path}: unknown artifact type (expected .prom or .json)"
    try:
        payload = read_json(path, ValueError, "JSON")
    except ValueError as exc:
        return str(exc)
    artifact = identify(payload)
    if artifact is None:
        return f"{path}: unknown artifact (not a {_KINDS})"
    problems = artifact.problems(payload)
    if problems:
        return f"{path}: {'; '.join(problems)}"
    if LOG.is_enabled("debug"):  # two summaries re-run their validator
        LOG.debug(f"{artifact.name} ok", path=str(path), **artifact.summary(payload))
    return None


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
