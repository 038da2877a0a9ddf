"""Grep-semantics oracle, the op log and failure accounting.

Expected results come from :func:`repro.baselines.grep.grep_lines` over
the corpus exactly as the workload ingests it, and are computed in
set-up, outside the timed region. The timed region only *logs* what the
system answered (:class:`OpLog`); :func:`verify` compares afterwards, so
checking costs the measured ops nothing.

Three strengths of check, from the issue:

- queries with an :class:`Expected` entry are compared line for line
  (the first time they run) and by count (every time);
- every other query is cross-checked for consistency: on an unchanged
  store the same query returns the same count, a growing store never
  loses matches, and batched per-query counts equal single-query counts;
- ``limit=`` results must be oracle matches already in the store, with
  length ``min(limit, total)``.
"""

from __future__ import annotations

import time
import traceback
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from pilot import PILOT_EVERY_S, pilot
from repro.baselines.grep import grep_lines
from repro.core.query import Query


@dataclass(frozen=True)
class Expected:
    """One query's oracle answer over a whole corpus.

    ``indices`` are the corpus positions of the matching lines, in
    order, so the answer for any *prefix* of the corpus (a store that is
    still being fed) is a bisect away.
    """

    indices: tuple[int, ...]

    def count(self, lines_in_store: int) -> int:
        return bisect_left(self.indices, lines_in_store)


def grep_expected(
    queries: Sequence[Query], corpus: Sequence[bytes]
) -> dict[Query, Expected]:
    """Oracle answers for ``queries`` over ``corpus``.

    The synthetic corpora repeat lines in bursts, and grep semantics are
    a function of the line's bytes alone, so ``grep_lines`` runs once per
    *distinct* line and the verdict is expanded back to corpus order —
    the same answer as grepping every line, about 7x sooner.
    """
    distinct = list(dict.fromkeys(corpus))
    expected = {}
    for query in queries:
        matching = set(grep_lines(query, distinct))
        expected[query] = Expected(
            tuple(i for i, line in enumerate(corpus) if line in matching)
        )
    return expected


@dataclass
class QueryOp:
    """One direct ``query()``/``scan_all()`` call."""

    queries: tuple[Query, ...]
    wall_s: float
    latency: bool  #: counts toward the latency percentiles
    lines_in_store: int
    limit: Optional[int]
    counts: Optional[list[int]]  #: None when the call raised
    stats: Any  #: QueryStats
    lines: Optional[list[bytes]]  #: kept only when verify() will read them


@dataclass
class ServiceOp:
    """One ``QueryService.run()`` window."""

    wall_s: float
    lines_in_store: int
    submitted: int
    report: Any  #: ServiceReport; None when the call raised


@dataclass
class IngestOp:
    wall_s: float
    reports: list  #: IngestReports the call produced; empty when it raised


@dataclass
class OpLog:
    """Everything the timed region records, in op order."""

    ops: list = field(default_factory=list)
    #: ``(op index or None for a workload-level check, what, detail)``
    failures: list[tuple[Optional[int], str, str]] = field(default_factory=list)
    checks: int = 0  #: workload-level assertions made
    #: set by the traced run so spans of one op share its id
    tracer: Any = None
    #: queries whose matched lines verify() still wants to see
    want_lines: set = field(default_factory=set)
    #: machine-speed pilot samples taken between ops (see pilot.py)
    pilot_s: list[float] = field(default_factory=list)
    _last_pilot: float = field(default_factory=time.perf_counter)

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.checks

    @property
    def failed(self) -> int:
        """Failed ops: an op with several mismatches counts once."""
        ops = {index for index, _, _ in self.failures if index is not None}
        return len(ops) + sum(1 for index, _, _ in self.failures if index is None)

    def _begin(self) -> float:
        if self.tracer is not None:
            self.tracer.op_id = len(self.ops)
        return time.perf_counter()

    def _failed(self, what: str) -> None:
        self.failures.append((len(self.ops), what, traceback.format_exc()))

    def _record(self, op: Any) -> None:
        self.ops.append(op)
        if time.perf_counter() - self._last_pilot >= PILOT_EVERY_S:
            self.pilot_s.append(pilot())
            self._last_pilot = time.perf_counter()

    def query(
        self,
        call: Callable,
        *queries: Query,
        lines_in_store: int,
        latency: bool = True,
        **kwargs: Any,
    ) -> None:
        started = self._begin()
        try:
            outcome = call(*queries, **kwargs)
        except Exception:  # an op that raises is a failed op, not a crash
            self._failed(f"query raised: {' | '.join(map(str, queries))}")
            outcome = None
        wall = time.perf_counter() - started
        lines = None
        if outcome is not None and (
            "limit" in kwargs
            or (len(queries) == 1 and queries[0] in self.want_lines)
        ):
            self.want_lines.discard(queries[0])
            lines = outcome.matched_lines
        self._record(QueryOp(
            queries=queries, wall_s=wall, latency=latency,
            lines_in_store=lines_in_store, limit=kwargs.get("limit"),
            counts=None if outcome is None else outcome.per_query_counts,
            stats=None if outcome is None else outcome.stats, lines=lines,
        ))

    def service(self, service: Any, requests: Sequence, lines_in_store: int) -> None:
        started = self._begin()
        try:
            report = service.run(requests)
        except Exception:
            self._failed("service.run raised")
            report = None
        self._record(ServiceOp(
            time.perf_counter() - started, lines_in_store, len(requests), report
        ))

    def ingest(self, call: Callable[[], Sequence]) -> None:
        """``call`` performs one ingest op and returns its IngestReports."""
        started = self._begin()
        try:
            reports = list(call())
        except Exception:
            self._failed("ingest raised")
            reports = []
        self._record(IngestOp(time.perf_counter() - started, reports))

    def check(self, ok: bool, what: str) -> None:
        """A workload-level assertion (recovery totals, evaluation counts)."""
        self.checks += 1
        if not ok:
            self.failures.append((None, what, ""))


def verify(
    log: OpLog,
    expected: dict[Query, Expected],
    corpus: Sequence[bytes],
    baseline_counts: Optional[dict[Query, int]] = None,
) -> None:
    """Compare every logged answer with the oracle; failures go to the log.

    ``baseline_counts`` seeds the consistency check with counts seen in
    set-up on the fully loaded store (the warm-up pass of ``index_warm``).
    """
    seen: dict[Query, tuple[int, int]] = {
        query: (len(corpus), count)
        for query, count in (baseline_counts or {}).items()
    }

    def fail(index: int, what: str) -> None:
        log.failures.append((index, what, ""))

    def check_count(index: int, query: Query, count: int, in_store: int) -> bool:
        oracle = expected.get(query)
        if oracle is not None and count != oracle.count(in_store):
            fail(index, f"{query}: {count} matches, oracle {oracle.count(in_store)}")
            return False
        before = seen.get(query)
        seen[query] = (in_store, count)
        if before is None:
            return True
        if in_store == before[0] and count != before[1]:
            fail(index, f"{query}: count changed {before[1]} -> {count} "
                        "on an unchanged store")
            return False
        if in_store > before[0] and count < before[1]:
            fail(index, f"{query}: lost matches as the store grew")
            return False
        return True

    for index, op in enumerate(log.ops):
        if isinstance(op, QueryOp):
            if op.counts is None:
                continue  # already counted when it raised
            if op.limit is not None:
                _check_limited(op, expected, corpus, lambda w, i=index: fail(i, w))
                continue
            ok = all([
                check_count(index, query, count, op.lines_in_store)
                for query, count in zip(op.queries, op.counts)
            ])
            oracle = expected.get(op.queries[0])
            if ok and op.lines is not None and oracle is not None:
                want = [corpus[i] for i in oracle.indices[: op.counts[0]]]
                if op.lines != want:
                    fail(index, f"{op.queries[0]}: lines differ from grep")
        elif isinstance(op, ServiceOp):
            _check_service(index, op, check_count, fail)


def _check_limited(op: QueryOp, expected, corpus, fail: Callable[[str], None]) -> None:
    query = op.queries[0]
    oracle = expected[query]
    total = oracle.count(op.lines_in_store)
    if len(op.lines) != min(op.limit, total):
        fail(f"{query} limit={op.limit}: {len(op.lines)} lines, "
             f"oracle has {total}")
        return
    in_store = {corpus[i] for i in oracle.indices[:total]}
    if not in_store.issuperset(op.lines):
        fail(f"{query} limit={op.limit}: a returned line is not an oracle match")


def _check_service(index: int, op: ServiceOp, check_count, fail) -> None:
    report = op.report
    if report is None:
        return
    if not report.conserved() or report.submitted != op.submitted:
        fail(index, "service outcomes are not conserved")
        return
    # the load is below capacity: anything but an exact answer is a failure
    lost = [r.outcome.value for r in report.responses if not r.ok]
    if lost:
        fail(index, f"{len(lost)} of {op.submitted} requests not answered: "
                    f"{sorted(set(lost))}")
        return
    for response in report.responses:
        check_count(index, response.request.query, response.matches,
                    op.lines_in_store)
