"""The incident flight recorder: evidence capture at alert-fire time.

When a burn-rate alert (:mod:`repro.obs.slo`) fires, the question a
responder asks is always the same: *what was the system doing right
before this?* This module answers it by snapshotting an **incident
bundle** the moment an alert enters the firing state:

- the alert itself (SLO definition, burn rates, budget position),
- the tail of the query journal inside the window, plus tenant tallies
  — the same records the monitor observed, so the evidence and the
  alert come from one signal,
- one snapshot of the metrics registry taken at fire time
  (:func:`repro.obs.expose.snapshot`), and the per-resource
  utilization (``mithrilog_util_busy_fraction``) read from it,
- active fault-log entries (what the harness injected),
- the hottest *slow* template in the window with its EXPLAIN plan.

Bundles are JSON artifacts (``kind: mithrilog_incident_bundle``)
validated by :func:`validate_incident_bundle` (wired into
``repro.obs.check``), plus a rendered markdown incident report for
humans. Everything is keyed by simulated time, so two runs with the
same seed write byte-identical bundles.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.obs.artifacts import envelope_problems, write_json
from repro.obs.explain import validate_explain_report
from repro.obs.expose import snapshot, validate_snapshot
from repro.obs.journal import OUTCOMES, nearest_rank
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry, handle
from repro.obs.slo import SLO, Alert, AlertState, SLOMonitor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.reporting import FaultLog
    from repro.obs.journal import QueryJournal
    from repro.system.mithrilog import MithriLogSystem

__all__ = [
    "INCIDENT_KIND",
    "INCIDENT_VERSION",
    "FlightRecorder",
    "validate_incident_bundle",
    "render_markdown",
    "write_bundle",
]

INCIDENT_KIND = "mithrilog_incident_bundle"
INCIDENT_VERSION = 2

LOG = get_logger("repro.obs.recorder")


class FlightRecorder:
    """Captures an incident bundle whenever a monitored alert fires.

    Construct it over the same monitor and journal the live run uses;
    it registers itself on ``monitor.on_transition`` and builds one
    bundle per firing transition. The metrics registry active at
    construction is the one snapshotted at fire time, so a recorder
    built under :func:`~repro.obs.metrics.use_registry` keeps reading
    that registry after the block exits. ``out_dir`` (optional) writes
    each bundle to disk as JSON + markdown; bundles are always kept in
    memory on :attr:`bundles` regardless.
    """

    def __init__(
        self,
        monitor: SLOMonitor,
        journal: Optional["QueryJournal"] = None,
        fault_logs: Sequence["FaultLog"] = (),
        system: Optional["MithriLogSystem"] = None,
        lookback_s: float = 0.25,
        journal_tail: int = 200,
        out_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.monitor = monitor
        self.registry = get_registry()
        self.journal = journal
        self.fault_logs = list(fault_logs)
        self.system = system
        self.lookback_s = float(lookback_s)
        self.journal_tail = int(journal_tail)
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.bundles: list[dict] = []
        self.written: list[Path] = []
        monitor.on_transition.append(self._on_transition)
        self._m_incidents = handle("mithrilog_slo_incidents_recorded_total")

    # -- the listener ------------------------------------------------------

    def _on_transition(
        self, slo: SLO, alert: Alert, state: AlertState, now_s: float
    ) -> None:
        if state is not AlertState.FIRING:
            return
        bundle = self.capture(slo, alert, now_s)
        self.bundles.append(bundle)
        self._m_incidents.inc()
        if self.out_dir is not None:
            self.written.extend(write_bundle(bundle, self.out_dir))

    # -- bundle assembly ---------------------------------------------------

    def capture(self, slo: SLO, alert: Alert, now_s: float) -> dict:
        """Build the incident bundle for one firing alert."""
        start_s = now_s - self.lookback_s
        bundle: dict = {
            "kind": INCIDENT_KIND,
            "version": INCIDENT_VERSION,
            "fired_at_s": now_s,
            "window": {"start_s": start_s, "end_s": now_s},
            "slo": slo.to_dict(),
            "alert": alert.to_dict(),
            "monitor": {
                "states": {
                    s.name: self.monitor.state_of(s.name).value
                    for s in self.monitor.slos
                },
                "budgets": [
                    self.monitor.budget(s.name) for s in self.monitor.slos
                ],
            },
        }
        metrics = snapshot(self.registry)
        bundle["metrics"] = metrics
        util = metrics["metrics"].get("mithrilog_util_busy_fraction", {})
        bundle["utilization"] = util.get("samples", [])
        bundle["journal"] = self._journal_tail(start_s, now_s)
        bundle["faults"] = self._faults()
        slow = self._slow_template(start_s, now_s)
        if slow is not None:
            bundle["slow_template"] = slow
        return bundle

    def _journal_tail(self, start_s: float, end_s: float) -> dict:
        if self.journal is None:
            return {"available": False}
        tail = [
            r.to_dict()
            for r in self.journal.records
            if start_s <= r.completed_at_s <= end_s
        ]
        truncated = max(0, len(tail) - self.journal_tail)
        if truncated:
            tail = tail[-self.journal_tail:]
        return {
            "available": True,
            "records": tail,
            "truncated": truncated,
            "tenants": self.journal.tenant_tallies(),
            "evicted": getattr(self.journal, "evicted", 0),
        }

    def _faults(self) -> dict:
        events = [asdict(e) for log in self.fault_logs for e in log.events]
        by_kind: dict[str, int] = {}
        for event in events:
            by_kind[event["kind"]] = by_kind.get(event["kind"], 0) + 1
        return {"events": events, "by_kind": dict(sorted(by_kind.items()))}

    def _slow_template(
        self, start_s: float, end_s: float
    ) -> Optional[dict]:
        """The window's slowest template by p99 service time, with EXPLAIN."""
        if self.journal is None:
            return None
        pools: dict[str, list[float]] = {}
        for record in self.journal.records:
            if record.outcome != "ok":
                continue
            if not start_s <= record.completed_at_s <= end_s:
                continue
            pools.setdefault(record.template, []).append(record.service_s)
        if not pools:
            return None
        ranked = []
        for template, services in pools.items():
            services.sort()
            ranked.append(
                (nearest_rank(services, 99), len(services), template)
            )
        ranked.sort(key=lambda item: (-item[0], -item[1], item[2]))
        p99_service, count, template = ranked[0]
        entry: dict = {
            "template": template,
            "text": self.journal.templates.get(template, ""),
            "ok_count": count,
            "p99_service_ms": p99_service * 1e3,
        }
        if self.system is not None and entry["text"]:
            from repro.core.query import parse_query

            try:
                report = self.system.explain(parse_query(entry["text"]))
                entry["explain"] = report.to_dict()
            except Exception as exc:  # pragma: no cover - defensive
                entry["explain_error"] = str(exc)
        return entry


# ---------------------------------------------------------------------------
# Serialisation, rendering, validation
# ---------------------------------------------------------------------------


def _bundle_stem(bundle: dict) -> str:
    fired_us = int(round(float(bundle.get("fired_at_s", 0.0)) * 1e6))
    slo = str(bundle.get("slo", {}).get("name", "unknown"))
    safe = "".join(c if c.isalnum() or c in "-_" else "-" for c in slo)
    return f"incident-{safe}-{fired_us}us"


def write_bundle(bundle: dict, out_dir: Union[str, Path]) -> list[Path]:
    """Write one bundle as ``.json`` + ``.md``; returns written paths.

    File names are derived from the SLO name and the simulated fire
    time, so identical runs write identical artifacts.
    """
    out_dir = Path(out_dir)
    stem = _bundle_stem(bundle)
    json_path = out_dir / f"{stem}.json"
    write_json(json_path, bundle)
    md_path = out_dir / f"{stem}.md"
    md_path.write_text(render_markdown(bundle))
    LOG.info(f"incident bundle written: {json_path}")
    return [json_path, md_path]


def render_markdown(bundle: dict) -> str:
    """Render a bundle as a human-readable incident report."""
    slo = bundle.get("slo", {})
    alert = bundle.get("alert", {})
    window = bundle.get("window", {})
    lines = [
        f"# Incident: `{slo.get('name')}` burn-rate alert",
        "",
        f"- **Objective**: {slo.get('objective')} "
        f"(target {slo.get('target')}, tenant `{slo.get('tenant')}`)",
        f"- **Fired at** (sim): {bundle.get('fired_at_s'):.6f}s "
        f"(pending since {alert.get('pending_at_s'):.6f}s)",
        f"- **Burn rates at fire**: fast={alert.get('burn_fast_at_fire'):.2f}x"
        f" slow={alert.get('burn_slow_at_fire'):.2f}x "
        f"(threshold {slo.get('burn_threshold')}x)",
        f"- **Budget position**: {alert.get('budget_bad_events')} bad of "
        f"{alert.get('budget_total_events')} in-scope events",
        f"- **Evidence window**: [{window.get('start_s'):.6f}s, "
        f"{window.get('end_s'):.6f}s]",
        "",
    ]
    journal = bundle.get("journal", {})
    if journal.get("available"):
        records = journal.get("records", [])
        outcomes = {o: 0 for o in OUTCOMES}
        for record in records:
            outcome = record.get("outcome")
            if outcome in outcomes:
                outcomes[outcome] += 1
        lines += [
            "## Journal window",
            "",
            f"{len(records)} records in window"
            + (f" ({journal.get('truncated')} older truncated)"
               if journal.get("truncated") else "")
            + (f", {journal.get('evicted')} evicted ring-buffer entries"
               if journal.get("evicted") else "")
            + ".",
            "",
            "| outcome | count |",
            "|---|---|",
        ]
        lines += [f"| {o} | {outcomes[o]} |" for o in OUTCOMES]
        lines.append("")
    faults = bundle.get("faults", {})
    if faults.get("events"):
        lines += ["## Injected faults", ""]
        lines += [
            f"- `{kind}` × {count}"
            for kind, count in faults.get("by_kind", {}).items()
        ]
        lines.append("")
    slow = bundle.get("slow_template")
    if slow:
        lines += [
            "## Hottest slow template",
            "",
            f"- fingerprint `{slow.get('template')}`, "
            f"{slow.get('ok_count')} OK in window, "
            f"p99 service {slow.get('p99_service_ms'):.3f}ms",
            f"- query: `{slow.get('text')}`",
        ]
        explain = slow.get("explain")
        if explain:
            bottleneck = explain.get("bottleneck")
            if bottleneck:
                lines.append(f"- planner bottleneck estimate: `{bottleneck}`")
        lines.append("")
    util = bundle.get("utilization") or []
    if util:
        lines += ["## Utilization (at fire time)", ""]
        lines += [
            f"- `{sample.get('labels', {}).get('resource', '?')}`: "
            f"{sample.get('value'):.3f} busy fraction"
            for sample in util
        ]
        lines.append("")
    return "\n".join(lines) + "\n"


def validate_incident_bundle(payload: object) -> list[str]:
    """Schema + internal-consistency check; returns problem strings.

    An empty list means the bundle is trustworthy: the alert's
    timestamps are ordered, its burn rates clear the SLO's threshold,
    every journal record sits inside the evidence window, the metrics
    snapshot passes :func:`~repro.obs.expose.validate_snapshot`, and the
    embedded EXPLAIN (when present) passes the explain validator.
    """
    problems = envelope_problems(payload, INCIDENT_KIND, INCIDENT_VERSION)
    if problems:
        return problems
    assert isinstance(payload, dict)
    slo = payload.get("slo")
    alert = payload.get("alert")
    window = payload.get("window")
    if not isinstance(slo, dict):
        return ["slo definition missing"]
    if not isinstance(alert, dict):
        return ["alert record missing"]
    if not isinstance(window, dict):
        return ["evidence window missing"]
    fired = alert.get("fired_at_s")
    pending = alert.get("pending_at_s")
    if not isinstance(fired, (int, float)):
        problems.append("alert never fired (fired_at_s missing)")
    elif isinstance(pending, (int, float)) and pending > fired:
        problems.append("alert pended after it fired")
    threshold = slo.get("burn_threshold")
    if isinstance(threshold, (int, float)) and isinstance(
        fired, (int, float)
    ):
        for key in ("burn_fast_at_fire", "burn_slow_at_fire"):
            burn = alert.get(key)
            if not isinstance(burn, (int, float)) or burn + 1e-9 < threshold:
                problems.append(
                    f"{key} {burn!r} below burn threshold {threshold}"
                )
    start = window.get("start_s")
    end = window.get("end_s")
    if not isinstance(start, (int, float)) or not isinstance(
        end, (int, float)
    ):
        problems.append("window bounds must be numbers")
    elif start > end:
        problems.append("window starts after it ends")
    journal = payload.get("journal")
    if isinstance(journal, dict) and journal.get("available"):
        records = journal.get("records")
        if not isinstance(records, list):
            problems.append("journal tail missing its records list")
        elif isinstance(start, (int, float)) and isinstance(
            end, (int, float)
        ):
            for i, record in enumerate(records):
                at = record.get("completed_at_s")
                if not isinstance(at, (int, float)) or not (
                    start - 1e-9 <= at <= end + 1e-9
                ):
                    problems.append(
                        f"journal record {i} completed at {at!r}, outside "
                        "the evidence window"
                    )
                    break
    problems += [f"metrics: {p}" for p in validate_snapshot(payload.get("metrics"))]
    slow = payload.get("slow_template")
    if isinstance(slow, dict):
        explain = slow.get("explain")
        if explain is not None:
            try:
                validate_explain_report(explain)
            except Exception as exc:
                problems.append(f"slow_template.explain invalid: {exc}")
    return problems
