"""Standing queries: continuous evaluation over newly sealed pages.

Batch queries ask "what happened?"; standing queries ask "tell me when
it happens". A :class:`StandingQuery` registers a continuous query
(the same :class:`repro.core.query.Query` algebra batch scans use)
with a :class:`StandingQueryRegistry` attached to a
:class:`repro.system.streaming.StreamingIngestor`. Every time the
ingestor seals pages, the registry evaluates its standing queries over
*only the newly sealed pages* (one incremental accelerator pass per
hardware-sized group of them, on the simulated clock — never a rescan
of history) and folds each query's matches into its
:class:`~repro.stream.windows.WindowAggregator`.

Threshold alerting reuses the PR 9 burn-rate machinery instead of
growing a parallel path: each evaluation classifies the live window
value against the query's :class:`Threshold` and feeds one synthetic
availability event (good = within threshold) into a shared
:class:`repro.obs.slo.SLOMonitor` under the pseudo-tenant
``stream:<query>``. The standard multi-window state machine
(ok → pending → firing → resolved) then drives the alert, and a
:class:`repro.obs.recorder.FlightRecorder` attached to the same
monitor snapshots an incident bundle at fire time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.analytics.workload import line_template_fingerprint
from repro.core.hashfilter import pack
from repro.core.query import Query, parse_query
from repro.core.tokenizer import split_tokens
from repro.errors import QueryError
from repro.obs.metrics import handle
from repro.obs.slo import SLO, AlertState, SLOMonitor
from repro.stream.windows import WINDOW_AGGREGATES, WindowAggregator, WindowSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.streaming import StreamingIngestor

THRESHOLD_OPS = (">=", "<=")

#: the pseudo-tenant prefix standing-query events use on the monitor
STREAM_TENANT_PREFIX = "stream:"


@dataclass(frozen=True)
class Threshold:
    """When does a window value become an alert?

    ``value``/``op``/``aggregate`` define the breach test. The rest
    parameterise the burn-rate SLO the registry synthesises: each
    evaluation emits one good/bad event, so with the defaults
    (``target=0.75``, ``burn_threshold=2.0``) a fully breached window
    burns at ``1 / (1 - 0.75) = 4`` — well over threshold — while
    isolated boundary blips stay below it.
    """

    value: float
    aggregate: str = "count"  #: which window aggregate to test
    op: str = ">="  #: breach when value `op` threshold holds
    fast_window_s: float = 0.05
    slow_window_s: float = 0.1
    burn_threshold: float = 2.0
    target: float = 0.75
    pending_for_s: float = 0.0
    resolve_after_s: float = 0.1

    def __post_init__(self) -> None:
        if self.aggregate not in WINDOW_AGGREGATES:
            raise QueryError(
                f"threshold aggregate must be one of {WINDOW_AGGREGATES}"
            )
        if self.op not in THRESHOLD_OPS:
            raise QueryError(f"threshold op must be one of {THRESHOLD_OPS}")

    def breached(self, window_value: float) -> bool:
        if self.op == ">=":
            return window_value >= self.value
        return window_value <= self.value

    def slo_for(self, query_name: str) -> SLO:
        """The synthetic burn-rate objective driving this alert."""
        return SLO(
            name=f"stream-{query_name}",
            objective="availability",
            tenant=f"{STREAM_TENANT_PREFIX}{query_name}",
            target=self.target,
            fast_window_s=self.fast_window_s,
            slow_window_s=self.slow_window_s,
            burn_threshold=self.burn_threshold,
            pending_for_s=self.pending_for_s,
            resolve_after_s=self.resolve_after_s,
        )

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "aggregate": self.aggregate,
            "op": self.op,
            "fast_window_s": self.fast_window_s,
            "slow_window_s": self.slow_window_s,
            "burn_threshold": self.burn_threshold,
            "target": self.target,
            "pending_for_s": self.pending_for_s,
            "resolve_after_s": self.resolve_after_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Threshold":
        if not isinstance(payload, dict):
            raise QueryError("threshold must be an object")
        if "value" not in payload:
            raise QueryError("threshold needs a value")
        unknown = set(payload) - {
            "value", "aggregate", "op", "fast_window_s", "slow_window_s",
            "burn_threshold", "target", "pending_for_s", "resolve_after_s",
        }
        if unknown:
            raise QueryError(f"threshold: unknown keys {sorted(unknown)}")
        return cls(**payload)


@dataclass(frozen=True)
class StandingQuery:
    """One registered continuous query."""

    name: str
    query: Query
    window: WindowSpec = field(default_factory=WindowSpec)
    aggregates: tuple = WINDOW_AGGREGATES
    threshold: Optional[Threshold] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryError("standing query needs a name")
        if isinstance(self.query, bytes):
            object.__setattr__(self, "query", self.query.decode())
        if isinstance(self.query, str):
            object.__setattr__(self, "query", parse_query(self.query))
        if not isinstance(self.query, Query):
            raise QueryError(
                f"standing query {self.name!r}: query must be a Query, "
                "str, or bytes"
            )
        for aggregate in self.aggregates:
            if aggregate not in WINDOW_AGGREGATES:
                raise QueryError(
                    f"standing query {self.name!r}: unknown aggregate "
                    f"{aggregate!r}"
                )
        if not self.aggregates:
            raise QueryError(
                f"standing query {self.name!r} needs at least one aggregate"
            )

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "query": str(self.query),
            "window": self.window.to_dict(),
            "aggregates": list(self.aggregates),
        }
        if self.threshold is not None:
            payload["threshold"] = self.threshold.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "StandingQuery":
        if not isinstance(payload, dict):
            raise QueryError("standing query entry must be an object")
        if "name" not in payload or "query" not in payload:
            raise QueryError("standing query entry needs name and query")
        unknown = set(payload) - {
            "name", "query", "window", "aggregates", "threshold",
        }
        if unknown:
            raise QueryError(
                f"standing query {payload.get('name')!r}: unknown keys "
                f"{sorted(unknown)}"
            )
        return cls(
            name=payload["name"],
            query=parse_query(payload["query"]),
            window=WindowSpec.from_dict(payload.get("window", {})),
            aggregates=tuple(
                payload.get("aggregates", WINDOW_AGGREGATES)
            ),
            threshold=(
                Threshold.from_dict(payload["threshold"])
                if payload.get("threshold") is not None
                else None
            ),
        )


@dataclass
class _StandingState:
    """A registered query plus its live window state."""

    query: StandingQuery
    aggregator: WindowAggregator


class StandingQueryRegistry:
    """Continuous queries evaluated incrementally against one system.

    Attach it to a :class:`~repro.system.streaming.StreamingIngestor`
    (:meth:`attach`) and every flush triggers :meth:`evaluate_new_pages`
    — or call that method directly from any ingest driver. Pages sealed
    *before* a query registers are not back-filled: a standing query
    watches the future, not the past.
    """

    def __init__(self, system, interval_s: float = 0.005) -> None:
        self.system = system
        #: threshold alerts; each registered threshold adds one SLO
        self.monitor = SLOMonitor([], interval_s=interval_s)
        self._states: dict[str, _StandingState] = {}
        #: the registered queries packed into accelerator passes, in
        #: registration order; recomputed by :meth:`register` only
        self._groups: list[list[_StandingState]] = []
        self._pages_seen = system.index.total_data_pages
        self.evaluations = 0
        self._m_evals = handle("mithrilog_stream_evaluations_total")
        self._m_matches = handle("mithrilog_stream_matches_total")
        self._m_window = handle("mithrilog_stream_window_value")
        self._m_registered = handle("mithrilog_stream_standing_queries")

    # -- registration ------------------------------------------------------

    def register(self, standing: StandingQuery) -> None:
        """Add a standing query; its threshold SLO joins the monitor.

        Pages sealed so far go to the queries registered before this one
        and to nobody else: the newcomer watches from here on.
        """
        if standing.name in self._states:
            raise QueryError(
                f"standing query {standing.name!r} already registered"
            )
        self.evaluate_new_pages()
        self._states[standing.name] = _StandingState(
            query=standing,
            aggregator=WindowAggregator(standing.name, standing.window),
        )
        if standing.threshold is not None:
            self.monitor.add_slo(standing.threshold.slo_for(standing.name))
        self._m_registered.set(len(self._states))
        engine = self.system.engine
        states = list(self._states.values())
        groups = pack(
            [state.query.query for state in states], engine.cuckoo_params, engine.seed
        )
        self._groups = [[states[i] for i in group] for group in groups]

    def attach(self, ingestor: "StreamingIngestor") -> None:
        """Evaluate after every flush of this ingestor."""
        ingestor.flush_listeners.append(self._on_flush)

    def _on_flush(self, lines_flushed: int, now_s: float) -> None:
        del lines_flushed, now_s  # the page delta is the real signal
        self.evaluate_new_pages()

    @property
    def standing(self) -> list[StandingQuery]:
        """Registered queries, in registration order."""
        return [state.query for state in self._states.values()]

    def aggregator(self, name: str) -> WindowAggregator:
        if name not in self._states:
            raise QueryError(f"unknown standing query {name!r}")
        return self._states[name].aggregator

    def alert_state(self, name: str) -> AlertState:
        """The named query's alert state (OK when it has no threshold)."""
        state = self._states.get(name)
        if state is None:
            raise QueryError(f"unknown standing query {name!r}")
        if state.query.threshold is None:
            return AlertState.OK
        return self.monitor.state_of(f"stream-{name}")

    # -- evaluation --------------------------------------------------------

    def evaluate_new_pages(self, workers: int = 1) -> int:
        """Scan pages sealed since the last call; returns how many.

        Each packed group of registered queries runs as one incremental
        accelerator pass restricted to the new pages (``within_pages``),
        so the cost of continuous evaluation tracks the *ingest* rate,
        not the store size or (up to the hardware's provisioning) the
        number of standing queries. Window values, metrics, and the
        threshold monitor advance on the system's simulated clock; the
        queries of a group all observe at the instant their pass ends.
        """
        index = self.system.index
        new_count = index.total_data_pages - self._pages_seen
        self._pages_seen += new_count
        if not new_count or not self._states:
            return new_count
        new_pages = index.data_pages[-new_count:]
        for group in self._groups:
            outcome = self.system.query(
                *[state.query.query for state in group],
                within_pages=new_pages,
                workers=workers,
            )
            # the pass returns its matched lines once; each goes back to
            # the queries it satisfies (as many as the kernel counted)
            matched = [
                (split_tokens(line), line_template_fingerprint(line))
                for line in outcome.matched_lines
            ]
            now_s = self.system.clock.now
            for state, matches in zip(group, outcome.per_query_counts):
                query = state.query.query
                fingerprints = {
                    fingerprint
                    for tokens, fingerprint in matched
                    if query.matches_tokens(tokens)
                }
                self._observe(state, now_s, matches, fingerprints)
        # force one evaluation per flush round so alert latency is
        # bounded by the flush cadence, not the monitor interval
        self.monitor.evaluate(self.system.clock.now)
        return new_count

    def _observe(
        self, state: _StandingState, now_s: float, matches: int, fingerprints
    ) -> None:
        """Fold one query's share of a pass into its window and alert."""
        values = state.aggregator.observe(now_s, matches, fingerprints)
        self.evaluations += 1
        name = state.query.name
        self._m_evals.inc(query=name)
        if matches:
            self._m_matches.inc(matches, query=name)
        for aggregate, value in values.items():
            self._m_window.set(value, query=name, aggregate=aggregate)
        threshold = state.query.threshold
        if threshold is not None:
            breached = threshold.breached(values[threshold.aggregate])
            self.monitor.observe(
                tenant=f"{STREAM_TENANT_PREFIX}{name}",
                outcome="shed" if breached else "ok",
                latency_s=0.0,
                now_s=now_s,
            )

    # -- status ------------------------------------------------------------

    def status_payload(self) -> dict:
        """The ``mithrilog_stream_status`` artifact (see ``status.py``)."""
        from repro.stream.status import STREAM_STATUS_KIND, STREAM_STATUS_VERSION

        queries = []
        for state in self._states.values():
            standing = state.query
            entry = {
                "definition": standing.to_dict(),
                "window_state": state.aggregator.to_dict(),
                "alert_state": self.alert_state(standing.name).value,
            }
            if standing.threshold is not None:
                slo_name = f"stream-{standing.name}"
                entry["alerts"] = [
                    alert.to_dict()
                    for alert in self.monitor.alerts
                    if alert.slo == slo_name
                ]
            queries.append(entry)
        return {
            "kind": STREAM_STATUS_KIND,
            "version": STREAM_STATUS_VERSION,
            "generated_at_s": self.system.clock.now,
            "pages_seen": self._pages_seen,
            "evaluations": self.evaluations,
            "queries": queries,
            "monitor_timeline": self.monitor.timeline(),
        }
