"""Declarative SLOs with deterministic multi-window burn-rate alerting.

The ROADMAP's open items (replica failover, standing alerts) both
presuppose the system can *detect* its own degradation while a run is
in flight. This module is that detector, in the SRE-workbook shape:

- :class:`SLO` — a declarative objective: per-tenant (or ``"*"``)
  **availability** (fraction of settled requests that resolve OK) or
  **latency** (fraction of OK requests under a threshold), with an
  error-budget target like 0.99;
- burn rate — ``bad_fraction / (1 - target)``: 1.0 means spending the
  budget exactly as provisioned, 10 means burning it 10x too fast;
- the multi-window rule — an alert becomes *active* only when **both**
  a fast window (catches the spike) and a slow window (suppresses
  blips) burn above the threshold;
- :class:`AlertState` machine — ``ok → pending → firing → resolved``,
  advanced only by simulated time, so two runs with the same seed
  produce identical alert timelines (pinned by hypothesis tests);
- :class:`SLOMonitor` — the evaluator: every settled request reaches
  it as one :class:`~repro.obs.journal.JournalRecord`
  (:meth:`SLOMonitor.observe_record`) — live from the service's settle
  step, or offline through :func:`replay_journal`, which is the same
  call — and it maintains event windows, error budgets,
  ``mithrilog_slo_*`` metrics, and fires listener callbacks (the flight
  recorder's hook) on state transitions.

Config files are JSON (``kind: mithrilog_slo_config``); see
:func:`load_slo_config` and :func:`default_slos`.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.obs.artifacts import NamedEntriesConfig
from repro.obs.metrics import handle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.journal import JournalRecord, QueryJournal

__all__ = [
    "SLO_CONFIG_KIND",
    "SLO_CONFIG_VERSION",
    "SLOError",
    "SLO",
    "AlertState",
    "Alert",
    "SLOMonitor",
    "default_slos",
    "parse_slo_config",
    "load_slo_config",
    "validate_slo_config",
    "replay_journal",
]

SLO_CONFIG_KIND = "mithrilog_slo_config"
SLO_CONFIG_VERSION = 1

OBJECTIVES = ("availability", "latency")


class SLOError(ValueError):
    """A malformed SLO definition or config artifact."""


class AlertState(str, enum.Enum):
    """Lifecycle of one SLO's alert."""

    OK = "ok"
    PENDING = "pending"
    FIRING = "firing"
    RESOLVED = "resolved"


@dataclass(frozen=True)
class SLO:
    """One declarative objective plus its burn-rate alert policy.

    ``tenant="*"`` aggregates over every tenant. Availability counts a
    settled request *good* when it resolved OK (and, with
    ``count_degraded``, was not served degraded); latency considers OK
    responses only and counts one good when its end-to-end simulated
    latency is at or under ``latency_threshold_s``.
    """

    name: str
    objective: str = "availability"  #: "availability" | "latency"
    tenant: str = "*"  #: tenant name, or "*" for all tenants
    target: float = 0.99  #: good fraction the budget is provisioned for
    latency_threshold_s: Optional[float] = None  #: latency SLOs only
    fast_window_s: float = 0.05  #: spike-catching window (sim seconds)
    slow_window_s: float = 0.25  #: blip-suppressing window (sim seconds)
    burn_threshold: float = 4.0  #: both windows must burn above this
    pending_for_s: float = 0.0  #: dwell before pending escalates to firing
    resolve_after_s: float = 0.1  #: quiet time before firing resolves
    count_degraded: bool = False  #: degraded OK responses count as bad

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise SLOError(
                f"slo {self.name!r}: objective must be one of {OBJECTIVES}"
            )
        if not 0.0 < self.target < 1.0:
            raise SLOError(f"slo {self.name!r}: target must be in (0, 1)")
        if self.objective == "latency" and self.latency_threshold_s is None:
            raise SLOError(
                f"slo {self.name!r}: latency objective needs "
                "latency_threshold_s"
            )
        if self.fast_window_s <= 0 or self.slow_window_s <= 0:
            raise SLOError(f"slo {self.name!r}: windows must be positive")
        if self.fast_window_s > self.slow_window_s:
            raise SLOError(
                f"slo {self.name!r}: fast window must not exceed slow window"
            )
        if self.burn_threshold <= 0:
            raise SLOError(f"slo {self.name!r}: burn threshold must be > 0")

    def classify(
        self,
        tenant: str,
        outcome: str,
        latency_s: float,
        degraded: bool = False,
    ) -> Optional[bool]:
        """Is this settled event good (True), bad (False), or N/A (None)?"""
        if self.tenant != "*" and tenant != self.tenant:
            return None
        if self.objective == "availability":
            if outcome == "approximated":
                # an estimated answer: degraded service, not lost work
                return not self.count_degraded
            if outcome != "ok":
                return False
            if self.count_degraded and degraded:
                return False
            return True
        # latency objective: only answered responses are in scope
        if outcome not in ("ok", "approximated"):
            return None
        assert self.latency_threshold_s is not None
        return latency_s <= self.latency_threshold_s

    def to_dict(self) -> dict:
        """JSON-ready form (used by configs and incident bundles)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "SLO":
        """Build an SLO from its JSON form; raises :class:`SLOError`."""
        if not isinstance(payload, dict):
            raise SLOError("slo entry must be an object")
        if "name" not in payload:
            raise SLOError("slo entry needs a name")
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise SLOError(
                f"slo {payload.get('name')!r}: unknown keys {sorted(unknown)}"
            )
        try:
            return cls(**payload)
        except TypeError as exc:  # pragma: no cover - defensive
            raise SLOError(f"malformed slo entry: {exc}") from exc


@dataclass
class Alert:
    """One alert incident: when it pended, fired, and resolved."""

    slo: str
    pending_at_s: float
    fired_at_s: Optional[float] = None
    resolved_at_s: Optional[float] = None
    burn_fast_at_fire: float = 0.0
    burn_slow_at_fire: float = 0.0
    budget_total_events: int = 0  #: in-scope events seen when it fired
    budget_bad_events: int = 0  #: bad in-scope events seen when it fired

    def to_dict(self) -> dict:
        """JSON-ready form (used by timelines and incident bundles)."""
        return asdict(self)


@dataclass
class _SLORuntime:
    """Mutable evaluation state for one SLO."""

    slo: SLO
    events: deque = field(default_factory=deque)  #: (t_s, good) in slow window
    total_events: int = 0  #: cumulative in-scope events (budget accounting)
    bad_events: int = 0  #: cumulative bad events (budget accounting)
    state: AlertState = AlertState.OK
    pending_since_s: Optional[float] = None
    below_since_s: Optional[float] = None
    alert: Optional[Alert] = None  #: the in-flight (pending/firing) alert

    def observe(self, t_s: float, good: bool) -> None:
        self.events.append((t_s, good))
        self.total_events += 1
        if not good:
            self.bad_events += 1

    def prune(self, now_s: float) -> None:
        horizon = now_s - self.slo.slow_window_s
        while self.events and self.events[0][0] < horizon:
            self.events.popleft()

    def burn(self, window_s: float, now_s: float) -> float:
        start = now_s - window_s
        total = 0
        bad = 0
        for t_s, good in self.events:
            if t_s >= start:
                total += 1
                if not good:
                    bad += 1
        if total == 0:
            return 0.0
        return (bad / total) / (1.0 - self.slo.target)


class SLOMonitor:
    """Evaluates SLOs live over settled events on the simulated clock.

    Feed it every settled request's journal record
    (:meth:`observe_record`), or raw events (:meth:`observe`); it
    maintains per-SLO sliding windows and, at ``interval_s`` cadence
    (plus one forced evaluation per explicit :meth:`evaluate` call),
    advances each alert state machine. State transitions are appended
    to :meth:`timeline` and fanned out to ``on_transition`` listeners —
    the flight recorder registers itself there.
    """

    def __init__(self, slos: Sequence[SLO], interval_s: float = 0.005) -> None:
        if interval_s <= 0:
            raise SLOError("monitor interval must be positive")
        names = [s.name for s in slos]
        if len(set(names)) != len(names):
            raise SLOError("duplicate SLO names in one monitor")
        self.slos = list(slos)
        self.interval_s = float(interval_s)
        self.alerts: list[Alert] = []  #: every alert ever raised, in order
        self.on_transition: list[
            Callable[[SLO, Alert, AlertState, float], None]
        ] = []
        self._runtimes = [_SLORuntime(slo) for slo in self.slos]
        self._timeline: list[dict] = []
        self._last_eval_s: Optional[float] = None
        self.evaluations = 0
        self._m_evals = handle("mithrilog_slo_evaluations_total")
        self._m_transitions = handle("mithrilog_slo_transitions_total")
        self._m_burn = handle("mithrilog_slo_burn_rate")
        self._m_firing = handle("mithrilog_slo_alerts_firing")

    def add_slo(self, slo: SLO) -> None:
        """Register another objective on a live monitor.

        Standing queries (:mod:`repro.stream.standing`) attach their
        threshold SLOs at registration time, after the monitor exists.
        The new objective starts with empty windows at state OK.
        """
        if any(existing.name == slo.name for existing in self.slos):
            raise SLOError(f"duplicate SLO {slo.name!r}")
        self.slos.append(slo)
        self._runtimes.append(_SLORuntime(slo))

    # -- event intake ------------------------------------------------------

    def observe(
        self,
        tenant: str,
        outcome: str,
        latency_s: float,
        now_s: float,
        degraded: bool = False,
    ) -> None:
        """Record one settled event and run a cadence-gated evaluation."""
        for runtime in self._runtimes:
            good = runtime.slo.classify(tenant, outcome, latency_s, degraded)
            if good is not None:
                runtime.observe(now_s, good)
        self.maybe_evaluate(now_s)

    def observe_record(self, record: "JournalRecord") -> None:
        """Record one settled request at its journalled completion time."""
        self.observe(
            tenant=record.tenant,
            outcome=record.outcome,
            latency_s=record.latency_s,
            now_s=record.completed_at_s,
            degraded=record.degraded,
        )

    # -- evaluation --------------------------------------------------------

    def maybe_evaluate(self, now_s: float) -> bool:
        """Evaluate if at least ``interval_s`` passed; returns whether run."""
        if (
            self._last_eval_s is not None
            and now_s - self._last_eval_s < self.interval_s
        ):
            return False
        self.evaluate(now_s)
        return True

    def evaluate(self, now_s: float) -> None:
        """Advance every alert state machine to simulated time ``now_s``."""
        self._last_eval_s = now_s
        self.evaluations += 1
        self._m_evals.inc()
        for runtime in self._runtimes:
            self._evaluate_one(runtime, now_s)
        self._m_firing.set(
            sum(1 for r in self._runtimes if r.state is AlertState.FIRING)
        )

    def _evaluate_one(self, runtime: _SLORuntime, now_s: float) -> None:
        slo = runtime.slo
        runtime.prune(now_s)
        burn_fast = runtime.burn(slo.fast_window_s, now_s)
        burn_slow = runtime.burn(slo.slow_window_s, now_s)
        self._m_burn.set(burn_fast, slo=slo.name, window="fast")
        self._m_burn.set(burn_slow, slo=slo.name, window="slow")
        active = (
            burn_fast >= slo.burn_threshold
            and burn_slow >= slo.burn_threshold
        )

        if runtime.state is AlertState.OK:
            if active:
                runtime.pending_since_s = now_s
                runtime.alert = Alert(slo=slo.name, pending_at_s=now_s)
                self.alerts.append(runtime.alert)
                self._transition(runtime, AlertState.PENDING, now_s)
                if now_s - runtime.pending_since_s >= slo.pending_for_s:
                    self._fire(runtime, now_s, burn_fast, burn_slow)
            return

        if runtime.state is AlertState.PENDING:
            if not active:
                runtime.pending_since_s = None
                runtime.alert = None
                self._transition(runtime, AlertState.OK, now_s)
                return
            assert runtime.pending_since_s is not None
            if now_s - runtime.pending_since_s >= slo.pending_for_s:
                self._fire(runtime, now_s, burn_fast, burn_slow)
            return

        if runtime.state is AlertState.FIRING:
            if active:
                runtime.below_since_s = None
                return
            if runtime.below_since_s is None:
                runtime.below_since_s = now_s
            if now_s - runtime.below_since_s >= slo.resolve_after_s:
                assert runtime.alert is not None
                runtime.alert.resolved_at_s = now_s
                self._transition(runtime, AlertState.RESOLVED, now_s)
                runtime.alert = None
                runtime.below_since_s = None
                runtime.state = AlertState.OK
            return

    def _fire(
        self,
        runtime: _SLORuntime,
        now_s: float,
        burn_fast: float,
        burn_slow: float,
    ) -> None:
        assert runtime.alert is not None
        runtime.alert.fired_at_s = now_s
        runtime.alert.burn_fast_at_fire = burn_fast
        runtime.alert.burn_slow_at_fire = burn_slow
        runtime.alert.budget_total_events = runtime.total_events
        runtime.alert.budget_bad_events = runtime.bad_events
        runtime.below_since_s = None
        self._transition(runtime, AlertState.FIRING, now_s)

    def _transition(
        self, runtime: _SLORuntime, state: AlertState, now_s: float
    ) -> None:
        previous = runtime.state
        runtime.state = state
        self._timeline.append(
            {
                "t_s": now_s,
                "slo": runtime.slo.name,
                "from": previous.value,
                "to": state.value,
            }
        )
        self._m_transitions.inc(slo=runtime.slo.name, state=state.value)
        if runtime.alert is not None:
            for listener in self.on_transition:
                listener(runtime.slo, runtime.alert, state, now_s)

    # -- reading -----------------------------------------------------------

    def timeline(self) -> list[dict]:
        """Every state transition, in simulated-time order."""
        return list(self._timeline)

    def state_of(self, name: str) -> AlertState:
        """Current alert state of the named SLO."""
        for runtime in self._runtimes:
            if runtime.slo.name == name:
                return runtime.state
        raise SLOError(f"unknown SLO {name!r}")

    def firing(self) -> list[Alert]:
        """Alerts currently in the firing state."""
        return [
            r.alert
            for r in self._runtimes
            if r.state is AlertState.FIRING and r.alert is not None
        ]

    def budget(self, name: str) -> dict:
        """Cumulative error-budget accounting for the named SLO."""
        for runtime in self._runtimes:
            if runtime.slo.name == name:
                budget_events = (
                    (1.0 - runtime.slo.target) * runtime.total_events
                )
                return {
                    "slo": name,
                    "total_events": runtime.total_events,
                    "bad_events": runtime.bad_events,
                    "budget_events": budget_events,
                    "consumed_ratio": (
                        runtime.bad_events / budget_events
                        if budget_events > 0
                        else 0.0
                    ),
                }
        raise SLOError(f"unknown SLO {name!r}")

    def to_dict(self) -> dict:
        """Monitor summary (config, states, budgets, timeline)."""
        return {
            "interval_s": self.interval_s,
            "evaluations": self.evaluations,
            "slos": [s.to_dict() for s in self.slos],
            "states": {
                r.slo.name: r.state.value for r in self._runtimes
            },
            "budgets": [self.budget(s.name) for s in self.slos],
            "alerts": [a.to_dict() for a in self.alerts],
            "timeline": self.timeline(),
        }


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def default_slos() -> list[SLO]:
    """The stock objectives used when no ``--slo-config`` is given."""
    return [
        SLO(
            name="availability-all",
            objective="availability",
            tenant="*",
            target=0.9,
        ),
        SLO(
            name="latency-p-all",
            objective="latency",
            tenant="*",
            target=0.9,
            latency_threshold_s=0.05,
        ),
    ]


_CONFIG = NamedEntriesConfig(
    kind=SLO_CONFIG_KIND,
    version=SLO_CONFIG_VERSION,
    key="slos",
    entry_from_dict=SLO.from_dict,
    error_cls=SLOError,
    what="SLO config",
)
validate_slo_config = _CONFIG.validate  #: payload -> problem strings
parse_slo_config = _CONFIG.parse  #: payload -> (slos, check_interval_s)
load_slo_config = _CONFIG.load  #: path -> (slos, check_interval_s)


def replay_journal(
    monitor: SLOMonitor, journal: "QueryJournal"
) -> SLOMonitor:
    """Drive a monitor from a recorded journal, in completion order.

    Each record goes through :meth:`SLOMonitor.observe_record`, the call
    the live service makes at settle time, so the alert timeline a
    replay produces is the one the live run showed. Returns the monitor
    for chaining.
    """
    records = sorted(journal.records, key=lambda r: (r.completed_at_s, r.seq))
    for record in records:
        monitor.observe_record(record)
    if records:
        monitor.evaluate(records[-1].completed_at_s)
    return monitor
