"""The benchmark's vocabulary: every metric's name, unit, clock and formula.

End-to-end metrics are computed from the op log of the **untraced** run
and never read the boundary table. Per-layer metrics come from the
**traced** run: times from the spans (``busy`` is the span sum, ``self``
is busy minus child spans), counts from the public result objects the
spans carry as ``units`` (``IngestReport``, ``QueryStats``,
``ServiceReport``) and from ``PageCache`` counters.

``BENCHMARK.json`` lists the same names, units and bounds; the smoke
test pins the two together.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

from layers import TraceSummary, UnresolvedBoundary
from oracle import IngestOp, OpLog, QueryOp, ServiceOp
from repro.service.service import percentile

MB = 1e6


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str  #: "lower" | "higher"
    #: "wall" (host clock) | "sim" (simulated clock) | "exact" (a ratio of
    #: byte counts); sim and exact values repeat bit for bit per seed
    clock: str
    #: allowed worsening (share of the parent's median) before a change
    #: counts as a regression. Sim and exact metrics also compare by
    #: equality on a same-seed pair (see compare.py); their bound here
    #: only has to cover the spread *across seeds*.
    bound: float


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", "wall", 0.25),
    EndToEnd("wall_s", "s", "lower", "wall", 0.20),
    EndToEnd("ingest_mbps", "MB/s", "higher", "wall", 0.20),
    EndToEnd("query_p50_ms", "ms", "lower", "wall", 0.25),
    EndToEnd("query_p95_ms", "ms", "lower", "wall", 0.25),
    EndToEnd("queries_per_s", "1/s", "higher", "wall", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", "wall", 0.10),
    EndToEnd("stored_bytes_per_user_byte", "B/B", "lower", "exact", 0.25),
    EndToEnd("sim_query_ms", "ms", "lower", "sim", 0.25),
    EndToEnd("sim_ingest_mbps", "MB/s", "higher", "sim", 0.10),
)

#: Reported in every record but not in BENCHMARK.json's ``end_to_end``
#: (the contract wants metrics that are never 0; the driver reads the
#: same fact from ``failed``/``attempted``).
FAILED_OPS_SHARE = EndToEnd("failed_ops_share", "share", "lower", "exact", 0.0)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sim_digest(log: OpLog) -> str:
    """sha1 over the ordered simulated stats of every op.

    Identical between two runs of the same code and seed, traced or
    not: this is how "the optimisation did not move the paper's
    numbers" is shown.
    """
    rows = []
    for op in log.ops:
        if isinstance(op, QueryOp) and op.stats is not None:
            s = op.stats
            rows.append((
                "q", s.pages_read, s.bytes_from_flash, s.bytes_decompressed,
                s.lines_seen, s.lines_kept, repr(s.scan_time_s),
                tuple(op.counts),
            ))
        elif isinstance(op, ServiceOp) and op.report is not None:
            rows.append(("s",) + tuple(
                (r.request.tenant, r.outcome.value, repr(r.latency_s), r.matches)
                for r in op.report.responses
            ))
        elif isinstance(op, IngestOp):
            rows.append(("i",) + tuple(
                (r.lines, r.compressed_bytes, r.pages_written, repr(r.elapsed_s))
                for r in op.reports
            ))
    return hashlib.sha1(repr(rows).encode()).hexdigest()


def end_to_end(
    log: OpLog,
    load_reports: list,
    setup_s: list[float],
    setup_load_mbps: list[float],
    wall_s: float,
    speed: float,
    peak_rss_mb: float,
) -> tuple[dict[str, float], dict[str, int]]:
    """Every end-to-end metric of one run, plus the sample counts.

    ``setup_s`` and ``setup_load_mbps`` hold one value per set-up
    repetition, ``wall_s`` is the timed region; all three arrive at
    reference machine speed already. ``speed`` is the timed region's
    machine-speed factor (see pilot.py), applied here to the op times.
    ``load_reports`` are the ``IngestReport``s of the set-up that fed
    the timed region.
    """
    queries = [op for op in log.ops if isinstance(op, QueryOp)]
    windows = [op for op in log.ops if isinstance(op, ServiceOp)]
    ingests = [op for op in log.ops if isinstance(op, IngestOp)]

    latencies = [op.wall_s / speed for op in queries if op.latency]
    latencies += [op.wall_s / speed for op in windows]
    answered = sum(len(op.queries) for op in queries if op.counts is not None)
    sim_latency = sum(
        len(op.queries) * op.stats.elapsed_s
        for op in queries if op.stats is not None
    )
    for op in windows:
        if op.report is not None:
            latencies_s = op.report.ok_latencies_s
            answered += len(latencies_s)
            sim_latency += sum(latencies_s)
    query_wall = sum(op.wall_s for op in queries + windows) / speed

    reports = list(load_reports)
    for op in ingests:
        reports.extend(op.reports)
    user_bytes = sum(r.original_bytes for r in reports)
    if ingests:
        timed_bytes = sum(r.original_bytes for op in ingests for r in op.reports)
        ingest_mbps = ratio(timed_bytes / MB, sum(op.wall_s for op in ingests) / speed)
    else:
        # read-only workloads ingest only in set-up; the contract wants
        # every metric on every workload, so the bulk load stands in
        ingest_mbps = statistics.median(setup_load_mbps)
    values = {
        "setup_s": statistics.median(setup_s),
        "wall_s": wall_s,
        "ingest_mbps": ingest_mbps,
        "query_p50_ms": percentile(latencies, 50) * 1e3,
        "query_p95_ms": percentile(latencies, 95) * 1e3,
        "queries_per_s": ratio(answered, query_wall),
        "peak_rss_mb": peak_rss_mb,
        "stored_bytes_per_user_byte": ratio(
            sum(r.compressed_bytes for r in reports), user_bytes
        ),
        "sim_query_ms": ratio(sim_latency, answered) * 1e3,
        "sim_ingest_mbps": ratio(
            user_bytes / MB, sum(r.elapsed_s for r in reports)
        ),
        "failed_ops_share": ratio(log.failed, log.attempted),
    }
    samples = {
        "latency_ops": len(latencies),
        "answered_queries": answered,
        "ingest_ops": len(ingests),
        "setup_repeats": len(setup_s),
        "attempted_ops": log.attempted,
    }
    return values, samples


# ---------------------------------------------------------------------------
# Per-layer metrics (traced run)
# ---------------------------------------------------------------------------

#: Columns of the tuples the ``system.query`` / ``system.ingest``
#: boundaries record as units (see layers.py).
Q_QUERIES, Q_INDEXED_PAGES, Q_ROOT_VISITS, Q_PAGES_READ, Q_CACHE_HITS, \
    Q_CACHE_MISSES, Q_RETRIES = range(7)
I_BYTES, I_PAGES, I_POSTINGS = range(3)

_FILTERS = ("filter_hash", "filter_soft")
_DECODES = ("decompress", "decompress_into")


def _median_ms(t: TraceSummary, name: str, units: int) -> float:
    picked = [d for d, u in t.durations(name) if u == units]
    return statistics.median(picked) * 1e3 if picked else 0.0


def _p95_ms(t: TraceSummary, name: str) -> float:
    return percentile([d for d, _ in t.durations(name)], 95) * 1e3


#: ``(name, unit, better, clock, formula(t, c))``: ``t`` is the
#: TraceSummary, ``c`` the run's context (set-up timings, counters,
#: service totals). ``clock`` is ``wall`` for host times and what is
#: derived from them, ``sim`` for the simulated clock, ``exact`` for
#: counts that repeat bit for bit. A formula that touches an unresolved
#: boundary yields ``null``.
PER_LAYER: tuple[tuple[str, str, str, str, Callable], ...] = (
    ("datasets.generate_s", "s", "lower", "wall", lambda t, c: c.timing["generate_s"]),
    ("templates.query_pool_s", "s", "lower", "wall", lambda t, c: c.timing["query_pool_s"]),
    # compression
    ("compression.compress_s", "s", "lower", "wall", lambda t, c: t.busy("compress")),
    ("compression.compress_calls", "count", "lower", "exact", lambda t, c: t.calls("compress")),
    ("compression.compress_mbps", "MB/s", "higher", "wall",
     lambda t, c: ratio(t.units("compress") / MB, t.busy("compress"))),
    ("compression.compress_calls_per_page", "ratio", "lower", "exact",
     lambda t, c: ratio(t.calls("compress"), t.units("system.ingest", col=I_PAGES))),
    ("compression.decode_s", "s", "lower", "wall", lambda t, c: t.busy(*_DECODES)),
    ("compression.decode_pages", "count", "lower", "exact", lambda t, c: t.calls(*_DECODES)),
    ("compression.decode_mbps", "MB/s", "higher", "wall",
     lambda t, c: ratio(t.units(*_DECODES) / MB, t.busy(*_DECODES))),
    # core
    ("core.tokenize_s", "s", "lower", "wall", lambda t, c: t.busy("tokenize")),
    ("core.tokenize_lines", "count", "lower", "exact", lambda t, c: t.units("tokenize")),
    ("core.filter_s", "s", "lower", "wall", lambda t, c: t.busy(*_FILTERS)),
    ("core.filter_lines_per_s", "1/s", "higher", "wall",
     lambda t, c: ratio(t.units(*_FILTERS), t.busy(*_FILTERS))),
    ("core.compile_s", "s", "lower", "wall", lambda t, c: t.busy("compile")),
    ("core.compile_calls", "count", "lower", "exact", lambda t, c: t.calls("compile")),
    ("core.offloaded_share", "share", "higher", "exact",
     lambda t, c: ratio(t.units("compile"), t.calls("compile"))),
    # index
    ("index.index_page_s", "s", "lower", "wall", lambda t, c: t.busy("index_page")),
    ("index.postings", "count", "lower", "exact",
     lambda t, c: t.units("system.ingest", col=I_POSTINGS)),
    ("index.postings_per_s", "1/s", "higher", "wall",
     lambda t, c: ratio(t.units("system.ingest", col=I_POSTINGS), t.busy("index_page"))),
    ("index.memory_bytes_per_user_byte", "B/B", "lower", "exact",
     lambda t, c: ratio(c.index_memory_bytes, c.stored_user_bytes)),
    ("index.probe_s", "s", "lower", "wall", lambda t, c: t.busy("candidate_pages")),
    ("index.probes", "count", "lower", "exact", lambda t, c: t.calls("candidate_pages")),
    ("index.root_visits_per_probe", "ratio", "lower", "exact",
     lambda t, c: ratio(t.units("system.query", col=Q_ROOT_VISITS),
                        t.calls("candidate_pages"))),
    ("index.candidate_share", "share", "lower", "exact",
     lambda t, c: ratio(t.units("candidate_pages"),
                        t.units("system.query", col=Q_INDEXED_PAGES))),
    # storage
    ("storage.append_s", "s", "lower", "wall", lambda t, c: t.busy("append_pages")),
    ("storage.pages_written", "count", "lower", "exact",
     lambda t, c: t.units("append_pages")),
    ("storage.fetch_s", "s", "lower", "wall", lambda t, c: t.busy("fetch_pages")),
    ("storage.pages_read", "count", "lower", "exact",
     lambda t, c: t.units("system.query", col=Q_PAGES_READ)),
    ("storage.read_retries", "count", "lower", "exact",
     lambda t, c: t.units("system.query", col=Q_RETRIES)),
    ("storage.device_read_s", "s", "lower", "wall", lambda t, c: t.busy("device_read")),
    ("storage.pages_read_per_limit_query", "ratio", "lower", "exact",
     lambda t, c: ratio(t.units("device_read"), t.calls("device_read"))),
    # exec
    ("exec.scan_s", "s", "lower", "wall", lambda t, c: t.busy("scan")),
    ("exec.scan_self_s", "s", "lower", "wall", lambda t, c: t.self_s("scan")),
    ("exec.passes", "count", "lower", "exact", lambda t, c: t.calls("scan")),
    ("exec.queries_per_pass", "ratio", "higher", "exact",
     lambda t, c: ratio(t.units("scan"), t.calls("scan"))),
    ("exec.pass_q1_ms", "ms", "lower", "wall", lambda t, c: _median_ms(t, "scan", 1)),
    ("exec.pass_q16_ms", "ms", "lower", "wall", lambda t, c: _median_ms(t, "scan", 16)),
    ("exec.cache_hit_share", "share", "higher", "exact",
     lambda t, c: ratio(
         t.units("system.query", col=Q_CACHE_HITS),
         t.units("system.query", col=Q_CACHE_HITS)
         + t.units("system.query", col=Q_CACHE_MISSES))),
    ("exec.cache_evictions", "count", "lower", "exact", lambda t, c: c.cache_evictions),
    # system
    ("system.ingest_s", "s", "lower", "wall", lambda t, c: t.busy("system.ingest")),
    ("system.ingest_self_s", "s", "lower", "wall", lambda t, c: t.self_s("system.ingest")),
    ("system.ingest_batch_p95_ms", "ms", "lower", "wall",
     lambda t, c: _p95_ms(t, "system.ingest")),
    ("system.query_s", "s", "lower", "wall", lambda t, c: t.busy("system.query")),
    ("system.query_self_s", "s", "lower", "wall", lambda t, c: t.self_s("system.query")),
    ("system.wal_append_s", "s", "lower", "wall", lambda t, c: t.busy("wal_append")),
    ("system.wal_bytes_per_user_byte", "B/B", "lower", "exact",
     lambda t, c: ratio(c.wal_bytes, c.timed_user_bytes)),
    ("system.checkpoint_s", "s", "lower", "wall", lambda t, c: t.busy("checkpoint")),
    ("system.recover_s", "s", "lower", "wall", lambda t, c: t.busy("recover")),
    ("system.stream_flush_s", "s", "lower", "wall", lambda t, c: t.busy("stream_flush")),
    # hw
    ("hw.perf_model_s", "s", "lower", "wall",
     lambda t, c: t.busy("perf_cycles", "perf_tokenized")),
    # service
    ("service.run_s", "s", "lower", "wall", lambda t, c: t.busy("service.run")),
    ("service.run_self_s", "s", "lower", "wall", lambda t, c: t.self_s("service.run")),
    ("service.passes", "count", "lower", "exact", lambda t, c: c.service_passes),
    ("service.requests_per_pass", "ratio", "higher", "exact",
     lambda t, c: ratio(t.units("service.run"), c.service_passes)),
    ("service.answered_share", "share", "higher", "exact",
     lambda t, c: ratio(c.service_answered, t.units("service.run"))),
    ("service.sim_goodput_qps", "1/s", "higher", "sim",
     lambda t, c: ratio(c.service_answered, c.service_sim_s)),
    ("service.sim_p99_ms", "ms", "lower", "sim", lambda t, c: c.service_sim_p99_ms),
    # stream
    ("stream.evaluate_s", "s", "lower", "wall", lambda t, c: t.busy("evaluate_new_pages")),
    ("stream.evaluations", "count", "lower", "exact", lambda t, c: c.stream_evaluations),
    ("stream.passes_per_flush", "ratio", "lower", "exact",
     lambda t, c: ratio(c.stream_evaluations, t.calls("evaluate_new_pages"))),
    ("stream.pages_per_evaluation", "ratio", "lower", "exact",
     lambda t, c: ratio(t.units("evaluate_new_pages"),
                        t.calls("evaluate_new_pages"))),
    # obs
    ("obs.registry_overhead_share", "share", "lower", "wall",
     lambda t, c: c.registry_overhead_share),
    # bench
    ("bench.trace_overhead_share", "share", "lower", "wall",
     lambda t, c: c.trace_overhead_share),
    ("bench.unattributed_share", "share", "lower", "wall",
     lambda t, c: ratio(c.wall_s - t.top_level_s, c.wall_s)),
    ("bench.oracle_s", "s", "lower", "wall", lambda t, c: c.oracle_s),
)


def per_layer(trace: TraceSummary, context: SimpleNamespace) -> dict[str, Optional[float]]:
    values: dict[str, Optional[float]] = {}
    for name, _unit, _better, _clock, formula in PER_LAYER:
        try:
            values[name] = formula(trace, context)
        except UnresolvedBoundary:
            values[name] = None
    return values


def service_totals(log: OpLog) -> dict[str, float]:
    """Simulated-clock service figures, read off the ServiceReports."""
    reports = [
        op.report for op in log.ops
        if isinstance(op, ServiceOp) and op.report is not None
    ]
    latencies = [s for report in reports for s in report.ok_latencies_s]
    return {
        # QueryService.passes is cumulative, so the last report has them all
        "service_passes": reports[-1].passes if reports else 0,
        "service_answered": len(latencies),
        "service_sim_s": sum(report.duration_s for report in reports),
        "service_sim_p99_ms": percentile(latencies, 99) * 1e3,
    }
