"""Command-line interface.

The workflows a downstream user needs, without writing Python::

    python -m repro generate --dataset Liberty2 --lines 20000 --out my.log
    python -m repro ingest   --log my.log --store ./store
    python -m repro query    --store ./store '"Failed" AND NOT "pbs_mom:"'
    python -m repro templates --log my.log --top 10
    python -m repro stats    --store ./store --format prometheus
    python -m repro trace    --store ./store 'KERNEL' --out trace.json
    python -m repro explain  --store ./store 'KERNEL' --analyze
    python -m repro watch-perf BENCH_hotpath.json fresh.json
    python -m repro serve-sim --log my.log --offered-qps 800 --max-loss 0.5
    python -m repro loadgen  --log my.log --multiples 0.5,1,2 --out sweep.json
    python -m repro workload mine   --journal journal.json --top 5
    python -m repro workload report --journal-a a.json --journal-b b.json
    python -m repro slo check --config slo.json --journal journal.json
    python -m repro slo watch --journal journal.json --bundle-out incidents/
    python -m repro stream register --name errors --expression 'ERROR' \
        --threshold 50 --out stream.json
    python -m repro stream status --config stream.json --log my.log \
        --out stream_status.json
    python -m repro compress --log my.log

Every command prints a short human-readable report; ``query`` also
prints matching lines (bounded by ``--limit``).

Output discipline: reports and diagnostics go through
:mod:`repro.obs.log` (so ``--quiet`` / ``--verbose`` work uniformly),
while a command's *payload* — matched lines, Prometheus text, JSON —
is written to stdout directly and survives ``--quiet``, which keeps
piping (``repro stats --format prometheus | promtool ...``) clean.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core.query import parse_query
from repro.datasets.loader import read_log_lines
from repro.datasets.schema import DATASET_SPECS
from repro.datasets.synthetic import generator_for
from repro.errors import MithriLogError, QueryError
from repro.obs.artifacts import write_json
from repro.obs.expose import bootstrap_families, render_prometheus, snapshot
from repro.obs.log import get_logger
from repro.obs.tracing import SpanTracer, TraceError, validate_chrome_trace
from repro.system.mithrilog import MithriLogSystem
from repro.system.persistence import load_store, save_store

log = get_logger("repro.cli")


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = generator_for(args.dataset, seed=args.seed)
    count = 0
    with open(args.out, "wb") as handle:
        for line in generator.iter_lines(args.lines):
            handle.write(line + b"\n")
            count += 1
    log.info(f"wrote {count:,} {args.dataset}-like lines to {args.out}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.datasets.timestamps import extract_epochs

    lines = read_log_lines(args.log)
    system = MithriLogSystem(seed=args.seed)
    timestamps = extract_epochs(lines) if args.timestamps else None
    if args.timestamps and timestamps is None:
        log.warning("could not extract epochs; ingesting without time index")
    report = system.ingest(lines, timestamps=timestamps)
    if timestamps is not None:
        system.index.flush(timestamp=timestamps[-1])
        log.info(f"time index: {timestamps[0]:.0f} .. {timestamps[-1]:.0f}")
    save_store(system, args.store)
    log.info(
        f"ingested {report.lines:,} lines ({report.original_bytes / 1e6:.2f} MB) "
        f"into {report.pages_written} pages at "
        f"{report.compression_ratio:.2f}x compression"
    )
    log.debug(
        "ingest breakdown",
        bottleneck=report.bottleneck,
        **{k: f"{v:.6f}s" for k, v in report.breakdown.items()},
    )
    log.info(f"store saved to {args.store}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    system = load_store(args.store, seed=args.seed)
    query = parse_query(args.expression)
    time_range = None
    if args.since is not None or args.until is not None:
        time_range = (args.since, args.until)
    if args.explain:
        from repro.system.planner import QueryPlanner

        plan = QueryPlanner(system).plan(query)
        log.info(f"plan: {'index path' if plan.use_index else 'full scan'}")
        log.info(f"  {plan.reason}")
        log.info(
            f"  estimated candidates: {plan.estimated_candidate_pages}/"
            f"{plan.total_pages} pages "
            f"({100 * plan.estimated_selectivity:.0f}%)"
        )
        log.info(
            f"  estimated: index path {plan.estimated_index_path_s * 1e3:.2f} ms, "
            f"full scan {plan.estimated_scan_s * 1e3:.2f} ms"
        )
        return 0
    if args.workers > 1 and args.stop_after is not None:
        log.warning("--stop-after forces the serial scan path; ignoring --workers")
    if args.sample_fraction is not None and args.stop_after is not None:
        log.error("--sample-fraction cannot be combined with --stop-after")
        return 2
    outcome = system.query(
        query,
        use_index=not args.no_index,
        time_range=time_range,
        limit=args.stop_after,
        newest_first=args.newest_first,
        workers=args.workers,
        analyze=args.analyze,
        sample_fraction=args.sample_fraction,
        sample_seed=args.sample_seed,
    )
    stats = outcome.stats
    log.info(
        f"{len(outcome.matched_lines):,} matching lines "
        f"({stats.candidate_pages}/{stats.total_pages} pages read, "
        f"{stats.elapsed_s * 1e3:.2f} ms simulated, "
        f"{outcome.effective_throughput(system.original_bytes) / 1e9:.1f} GB/s effective)"
    )
    if outcome.estimates is not None:
        estimate = outcome.estimates[0]
        log.info(
            f"  sampled scan: {stats.pages_sampled}/{stats.candidate_pages} "
            f"candidate pages at fraction {estimate.fraction:g} — "
            f"estimated {estimate.estimate:,.0f} matches "
            f"({100 * estimate.confidence:.0f}% CI "
            f"[{estimate.ci_low:,.0f}, {estimate.ci_high:,.0f}])"
        )
    log.debug(
        "query breakdown",
        bottleneck=stats.bottleneck,
        **{k: f"{v:.6f}s" for k, v in stats.breakdown.items()},
    )
    if args.aggregate:
        from repro.analytics.aggregate import aggregate_matches

        log.info(aggregate_matches(outcome.matched_lines).render())
        return 0
    for line in outcome.matched_lines[: args.limit]:
        print(line.decode(errors="replace"))
    hidden = len(outcome.matched_lines) - args.limit
    if hidden > 0:
        log.info(f"... {hidden:,} more (raise --limit to see them)")
    if outcome.explain is not None:
        print(outcome.explain.render())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    system = load_store(args.store, seed=args.seed)
    query = parse_query(args.expression)
    report = system.explain(
        query,
        use_index=not args.no_index,
        analyze=args.analyze,
        workers=args.workers,
    )
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render())
    if args.out is not None:
        report.write(args.out)
        log.info(f"explain report written to {args.out}")
    return 0


def _cmd_templates(args: argparse.Namespace) -> int:
    from repro.templates.fttree import FTTree, FTTreeParams

    lines = read_log_lines(args.log)
    tree = FTTree.from_lines(
        lines,
        FTTreeParams(
            max_depth=args.depth,
            prune_threshold=args.prune,
            max_doc_frequency=0.9,
        ),
    )
    log.info(f"{len(tree.templates)} templates extracted from {len(lines):,} lines")
    for template in tree.templates[: args.top]:
        log.info(f"  {template}")
        log.info(f"    query: {tree.template_query(template)}")
    return 0


def _cmd_tag(args: argparse.Namespace) -> int:
    from repro.core.tagger import TemplateTagger
    from repro.templates.fttree import FTTree, FTTreeParams

    lines = read_log_lines(args.log)
    tree = FTTree.from_lines(
        lines,
        FTTreeParams(max_depth=10, prune_threshold=32, max_doc_frequency=0.9),
    )
    tagger = TemplateTagger.from_tree(tree)
    histogram = tagger.histogram(lines)
    tagged = sum(count for tid, count in histogram.items() if tid is not None)
    log.info(
        f"{len(tree.templates)} templates, {tagger.num_passes} accelerator "
        f"passes, {tagged}/{len(lines)} lines tagged"
    )
    by_id = {t.template_id: t for t in tree.templates}
    ranked = sorted(
        ((tid, count) for tid, count in histogram.items() if tid is not None),
        key=lambda item: -item[1],
    )
    for tid, count in ranked[: args.top]:
        log.info(f"  {count:>7,}  {by_id[tid]}")
    unparsed = histogram.get(None, 0)
    if unparsed:
        log.info(f"  {unparsed:>7,}  (unparsed)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    # pre-register the canonical metric families so a fresh process still
    # exposes every family (storage, pipeline, index, WAL, faults) even
    # where the loaded store has recorded nothing yet
    bootstrap_families()
    system = load_store(args.store, seed=args.seed)
    if args.format == "prometheus":
        sys.stdout.write(render_prometheus())
        return 0
    if args.format == "json":
        print(json.dumps(snapshot(), indent=2, sort_keys=True))
        return 0
    log.info(f"store: {args.store}")
    log.info(f"  lines: {system.total_lines:,}")
    log.info(f"  original size: {system.original_bytes / 1e6:.2f} MB")
    log.info(f"  data pages: {system.index.total_data_pages}")
    log.info(f"  flash pages total: {system.device.flash.pages_written}")
    log.info(f"  index memory: {system.index.memory_footprint_bytes() / 1024:.0f} KiB")
    log.info(f"  snapshots: {len(system.index.snapshots.snapshots)}")

    def _rate(value: Optional[float]) -> str:
        return f"{value / 1e9:.2f} GB/s" if value else "unknown"

    # the per-stage accelerator capability the scan-time model charges:
    # the pipelines' rate is measured at ingest and persisted with the
    # store, the decompressors' follows from the params
    try:
        pipelines, effective = system.pipeline_rate, system.accelerator_rate
    except QueryError:  # nothing ingested, so no corpus to measure
        pipelines = effective = None
    log.info("  accelerator rates:")
    log.info(f"    filter pipelines: {_rate(pipelines)}")
    log.info(f"    decompressor: {_rate(system.decompressor_rate)}")
    log.info(f"    effective (min of both): {_rate(effective)}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    system = load_store(args.store, seed=args.seed)
    system.tracer = SpanTracer(clock=system.clock)
    query = parse_query(args.expression)
    outcome = system.query(query, use_index=not args.no_index)
    path = system.tracer.write_chrome_trace(
        args.out, utilization=args.utilization
    )
    spans = validate_chrome_trace(path)
    log.info(
        f"wrote {spans} spans to {path} "
        f"({len(outcome.matched_lines):,} matching lines, "
        f"{outcome.stats.elapsed_s * 1e3:.2f} ms simulated)"
    )
    log.info("open it at https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_watch_perf(args: argparse.Namespace) -> int:
    from repro.obs.watch import main as watch_main

    argv = list(args.files) + ["--metric", args.metric]
    if args.tolerance is not None:
        argv += ["--tolerance", str(args.tolerance)]
    if args.min_runs is not None:
        argv += ["--min-runs", str(args.min_runs)]
    if args.as_json:
        argv.append("--json")
    return watch_main(argv)


def _build_service(args: argparse.Namespace):
    """Shared serve-sim/loadgen setup: corpus -> system -> service parts."""
    from repro.service import make_tenants, query_pool

    lines = read_log_lines(args.log)
    tenants = make_tenants(
        args.tenants,
        skew=args.skew,
        queue_limit=args.queue_limit,
    )
    pool = query_pool(lines, max_queries=args.pool, seed=args.seed)

    def factory():
        from repro.service import QueryService

        system = MithriLogSystem(seed=args.seed)
        system.ingest(lines)
        return QueryService(
            system, tenants, max_backlog=args.max_backlog
        )

    return tenants, pool, factory


def _make_monitor(args: argparse.Namespace, system=None):
    """Shared serve-sim/loadgen journal and SLO wiring.

    Returns ``(journal, monitor, recorder)``. The journal (bounded by
    --journal-max-entries) exists whenever --journal-out, --slo-config
    or --bundle-out is given: the monitor reads its records, and the
    recorder's bundles quote them. Monitor and recorder are ``None``
    unless --slo-config or --bundle-out was given.
    """
    monitored = args.slo_config is not None or args.bundle_out is not None
    if args.journal_out is None and not monitored:
        return None, None, None
    from repro.obs.journal import QueryJournal

    journal = QueryJournal(max_entries=args.journal_max_entries)
    if not monitored:
        return journal, None, None
    from repro.obs.recorder import FlightRecorder
    from repro.obs.slo import SLOMonitor, default_slos, load_slo_config

    if args.slo_config is not None:
        slos, interval = load_slo_config(args.slo_config)
    else:
        slos, interval = default_slos(), 0.005
    monitor = SLOMonitor(slos, interval_s=interval)
    recorder = FlightRecorder(
        monitor, journal=journal, system=system, out_dir=args.bundle_out
    )
    return journal, monitor, recorder


def _log_slo_summary(monitor, recorder) -> None:
    """Log alert states, fired incidents and written bundle paths."""
    fired = [a for a in monitor.alerts if a.fired_at_s is not None]
    states = ", ".join(
        f"{slo.name}={monitor.state_of(slo.name).value}"
        for slo in monitor.slos
    )
    log.info(
        f"SLO monitor: {monitor.evaluations} evaluations, "
        f"{len(fired)} alert(s) fired ({states})"
    )
    for alert in fired:
        budget = monitor.budget(alert.slo)
        log.warning(
            f"  alert {alert.slo}: fired at {alert.fired_at_s * 1e3:.2f} ms "
            f"sim (burn fast {alert.burn_fast_at_fire:.1f}x / slow "
            f"{alert.burn_slow_at_fire:.1f}x, budget consumed "
            f"{100 * budget['consumed_ratio']:.0f}%)"
        )
    if recorder is not None:
        for path in recorder.written:
            log.info(f"  incident artifact: {path}")


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    from repro.service import open_loop_requests

    if args.tenants <= 0:
        log.error("--tenants must be positive")
        return 2
    if args.duration <= 0:
        log.error("--duration must be positive")
        return 2
    if args.offered_qps <= 0:
        log.error("--offered-qps must be positive")
        return 2
    if not 0 <= args.max_loss <= 1:
        log.error("--max-loss must be within [0, 1]")
        return 2
    tenants, pool, factory = _build_service(args)
    requests = open_loop_requests(
        pool,
        tenants,
        offered_qps=args.offered_qps,
        duration_s=args.duration,
        seed=args.seed,
        deadline_s=args.deadline_ms / 1e3 if args.deadline_ms else None,
        sample_fraction=args.sample_fraction,
    )
    service = factory()
    journal, monitor, recorder = _make_monitor(args, system=service.backend)
    if journal is not None:
        journal.begin_window("serve-sim")
        service.journal = journal
    service.monitor = monitor
    report = service.run(requests, workers=args.workers)
    counts = report.outcome_counts()
    log.info(
        f"served {report.submitted:,} requests from {len(tenants)} tenants "
        f"in {report.duration_s * 1e3:.1f} ms simulated "
        f"({report.passes} accelerator passes)"
    )
    log.info(
        f"  ok {counts['ok']:,}  rejected {counts['rejected']:,}  "
        f"shed {counts['shed']:,}  timed out {counts['timed_out']:,}  "
        f"approximated {counts['approximated']:,}"
    )
    log.info(
        f"  goodput {report.goodput_qps:,.0f} q/s, "
        f"p50 {report.latency_percentile_s(50) * 1e3:.2f} ms, "
        f"p99 {report.latency_percentile_s(99) * 1e3:.2f} ms, "
        f"loss rate {100 * report.shed_rate:.1f}%"
    )
    if not report.conserved():
        log.error("outcome conservation violated (this is a bug)")
        return 1
    if monitor is not None:
        _log_slo_summary(monitor, recorder)
    if journal is not None and args.journal_out is not None:
        journal.write(args.journal_out)
        evicted = f" ({journal.evicted:,} evicted)" if journal.evicted else ""
        log.info(
            f"query journal ({len(journal.records):,} records{evicted}) "
            f"written to {args.journal_out}"
        )
    if args.as_json:
        payload = {
            "submitted": report.submitted,
            "outcomes": counts,
            "goodput_qps": report.goodput_qps,
            "p50_ms": report.latency_percentile_s(50) * 1e3,
            "p99_ms": report.latency_percentile_s(99) * 1e3,
            "shed_rate": report.shed_rate,
            "passes": report.passes,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    if report.shed_rate > args.max_loss:
        log.warning(
            f"loss rate {100 * report.shed_rate:.1f}% exceeds "
            f"--max-loss {100 * args.max_loss:.1f}% — service degraded"
        )
        return 1
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.service import estimate_capacity, run_sweep

    if args.tenants <= 0:
        log.error("--tenants must be positive")
        return 2
    if args.duration <= 0:
        log.error("--duration must be positive")
        return 2
    try:
        multiples = [float(m) for m in args.multiples.split(",") if m]
    except ValueError:
        log.error(f"--multiples must be comma-separated numbers, got {args.multiples!r}")
        return 2
    if not multiples or any(m <= 0 for m in multiples):
        log.error("--multiples needs at least one positive value")
        return 2
    tenants, pool, factory = _build_service(args)
    capacity = estimate_capacity(factory, pool, tenants, seed=args.seed)
    log.info(f"measured capacity: {capacity:,.0f} q/s (simulated)")
    journal, monitor, recorder = _make_monitor(args)
    points = run_sweep(
        factory,
        pool,
        tenants,
        capacity_qps=capacity,
        load_multiples=multiples,
        duration_s=args.duration,
        deadline_s=args.deadline_ms / 1e3 if args.deadline_ms else None,
        seed=args.seed,
        workers=args.workers,
        journal=journal,
        monitor=monitor,
        sample_fraction=args.sample_fraction,
    )
    if monitor is not None:
        _log_slo_summary(monitor, recorder)
    if journal is not None and args.journal_out is not None:
        journal.write(args.journal_out)
        evicted = f" ({journal.evicted:,} evicted)" if journal.evicted else ""
        log.info(
            f"query journal ({len(journal.records):,} records{evicted}, "
            f"{len(multiples)} windows) written to {args.journal_out}"
        )
    log.info("  load   offered     goodput   p50 ms   p99 ms   loss   approx")
    for point in points:
        log.info(
            f"  x{point.load_multiple:<5g}{point.offered_qps:>8,.0f}"
            f"{point.goodput_qps:>12,.0f}{point.p50_ms:>9.2f}"
            f"{point.p99_ms:>9.2f}{100 * point.shed_rate:>6.1f}%"
            f"{point.approximated:>8,}"
        )
    if args.out is not None:
        write_json(args.out, [p.record() for p in points], indent=2)
        log.info(f"sweep records written to {args.out}")
    if args.p99_budget_ms is not None:
        worst = max(point.p99_ms for point in points)
        if worst > args.p99_budget_ms:
            log.warning(
                f"worst p99 {worst:.2f} ms exceeds budget "
                f"{args.p99_budget_ms:.2f} ms — latency degraded"
            )
            return 1
    return 0


def _cmd_workload_mine(args: argparse.Namespace) -> int:
    from repro.analytics.workload import drift, mine
    from repro.obs.journal import load_journal

    journal = load_journal(args.journal)
    if not journal.conserved():
        log.error(f"{args.journal}: journal violates outcome conservation")
        return 1
    profile = mine(journal, window=args.window)
    if profile.records == 0:
        log.error(
            f"{args.journal}: no records"
            + (f" in window {args.window!r}" if args.window else "")
        )
        return 1
    total = profile.total
    log.info(
        f"{profile.records:,} records over {profile.duration_s * 1e3:.1f} ms "
        f"simulated ({len(journal.windows())} windows, "
        f"{len(profile.templates)} templates)"
    )
    log.info(
        f"  goodput {profile.goodput_qps:,.0f} q/s, p50 {total.p50_ms:.2f} ms, "
        f"p99 {total.p99_ms:.2f} ms, loss {100 * total.loss_rate:.1f}%"
    )
    log.info("  hot templates:")
    for entry in profile.hot_templates(args.top):
        log.info(
            f"    {entry['template']}  n={entry['count']:<5,} "
            f"share={100 * entry['share']:4.1f}%  p99={entry['p99_ms']:.2f} ms  "
            f"{entry['query'][:48]}"
        )
    for dimension in ("tenant", "stage", "mode"):
        log.info(f"  by {dimension}:")
        for value, stats in sorted(profile.slices(dimension).items()):
            log.info(
                f"    {value:<12} n={stats.count:<5,} ok={stats.ok:<5,} "
                f"p99={stats.p99_ms:7.2f} ms  loss={100 * stats.loss_rate:4.1f}%"
            )
    if args.drift_windows is not None:
        names = [w for w in args.drift_windows.split(",") if w]
        if len(names) != 2:
            log.error("--drift-windows needs exactly two window labels")
            return 2
        report = drift(mine(journal, window=names[0]), mine(journal, window=names[1]))
        log.info(
            f"  drift {names[0]} -> {names[1]}: L1 {report.l1_share_distance:.4f} "
            f"({'DRIFTED' if report.drifted else 'stable'}), "
            f"{len(report.emerged)} emerged, {len(report.vanished)} vanished"
        )
    if args.as_json:
        print(json.dumps(profile.to_dict(args.top), indent=1, sort_keys=True))
    if args.out is not None:
        write_json(args.out, profile.to_dict(args.top), sort_keys=True)
        log.info(f"workload profile written to {args.out}")
    return 0


def _cmd_workload_report(args: argparse.Namespace) -> int:
    from repro.analytics.workload import mine
    from repro.obs.journal import load_journal
    from repro.obs.report import build_ab_report

    journal_a = load_journal(args.journal_a)
    journal_b = (
        journal_a if args.journal_b is None else load_journal(args.journal_b)
    )
    if args.journal_b is None and args.window_a is None and args.window_b is None:
        log.error(
            "one journal and no windows: nothing to compare "
            "(pass --journal-b, or --window-a/--window-b)"
        )
        return 2
    profile_a = mine(journal_a, window=args.window_a)
    profile_b = mine(journal_b, window=args.window_b)
    if profile_a.records == 0 or profile_b.records == 0:
        log.error("one side of the comparison has no records")
        return 1
    report = build_ab_report(
        profile_a,
        profile_b,
        label_a=args.label_a,
        label_b=args.label_b,
        threshold=args.threshold,
    )
    sys.stdout.write(report.render_markdown(top=args.top))
    if args.out is not None:
        report.write_json(args.out)
        log.info(f"A/B report JSON written to {args.out}")
    if args.md_out is not None:
        report.write_markdown(args.md_out, top=args.top)
        log.info(f"A/B report markdown written to {args.md_out}")
    hidden = report.hidden_regressions
    if hidden:
        log.warning(
            f"{len(hidden)} per-slice regressions hidden by the aggregate win"
        )
        if args.fail_on_hidden:
            return 1
    return 0


def _cmd_slo_check(args: argparse.Namespace) -> int:
    from repro.obs.journal import JournalError, load_journal
    from repro.obs.slo import SLOError, load_slo_config, replay_journal
    from repro.obs.slo import SLOMonitor

    try:
        slos, interval = load_slo_config(args.config)
    except SLOError as exc:
        log.error(str(exc))
        return 1
    log.info(
        f"{args.config}: valid SLO config — {len(slos)} objective(s), "
        f"check interval {interval * 1e3:.1f} ms sim"
    )
    for slo in slos:
        threshold = (
            f", latency <= {slo.latency_threshold_s * 1e3:.1f} ms"
            if slo.latency_threshold_s is not None
            else ""
        )
        log.info(
            f"  {slo.name}: {slo.objective} target {slo.target} "
            f"(tenant {slo.tenant}{threshold}, burn > {slo.burn_threshold}x "
            f"over {slo.fast_window_s * 1e3:g}/{slo.slow_window_s * 1e3:g} ms)"
        )
    fired = []
    if args.journal is not None:
        try:
            journal = load_journal(args.journal)
        except JournalError as exc:
            log.error(str(exc))
            return 1
        monitor = SLOMonitor(slos, interval_s=interval)
        replay_journal(monitor, journal)
        fired = [a for a in monitor.alerts if a.fired_at_s is not None]
        _log_slo_summary(monitor, None)
        if args.as_json:
            print(json.dumps(monitor.to_dict(), indent=1, sort_keys=True))
    if fired and args.fail_on_alert:
        return 1
    return 0


def _cmd_slo_watch(args: argparse.Namespace) -> int:
    from repro.obs.journal import JournalError, load_journal
    from repro.obs.recorder import FlightRecorder
    from repro.obs.slo import (
        SLOError,
        SLOMonitor,
        default_slos,
        load_slo_config,
        replay_journal,
    )

    try:
        if args.config is not None:
            slos, interval = load_slo_config(args.config)
        else:
            slos, interval = default_slos(), 0.005
    except SLOError as exc:
        log.error(str(exc))
        return 1
    try:
        journal = load_journal(args.journal)
    except JournalError as exc:
        log.error(str(exc))
        return 1
    monitor = SLOMonitor(slos, interval_s=interval)
    recorder = FlightRecorder(
        monitor,
        journal=journal,
        out_dir=args.bundle_out,
        lookback_s=args.lookback_s,
    )
    replay_journal(monitor, journal)
    log.info(
        f"replayed {len(journal.records):,} journal records through "
        f"{len(slos)} SLO(s)"
    )
    for entry in monitor.timeline():
        log.info(
            f"  {entry['t_s'] * 1e3:9.2f} ms  {entry['slo']}: "
            f"{entry['from']} -> {entry['to']}"
        )
    fired = [a for a in monitor.alerts if a.fired_at_s is not None]
    _log_slo_summary(monitor, recorder)
    if args.as_json:
        print(json.dumps(monitor.to_dict(), indent=1, sort_keys=True))
    return 1 if fired else 0


def _cmd_stream_register(args: argparse.Namespace) -> int:
    from repro.stream import (
        StandingQuery,
        Threshold,
        WindowSpec,
        build_stream_config,
        load_stream_config,
    )

    window = WindowSpec(kind=args.window, width_s=args.width_ms / 1e3)
    threshold = None
    if args.threshold is not None:
        threshold = Threshold(
            value=args.threshold,
            aggregate=args.aggregate,
            op=args.op,
        )
    standing = StandingQuery(
        name=args.name,
        query=parse_query(args.expression),
        window=window,
        threshold=threshold,
    )
    queries = []
    interval = args.check_interval_ms / 1e3
    out = Path(args.out)
    if out.exists():
        queries, interval = load_stream_config(out)
        if any(q.name == args.name for q in queries):
            log.error(f"{out}: a standing query named {args.name!r} exists")
            return 1
    queries.append(standing)
    payload = build_stream_config(queries, check_interval_s=interval)
    write_json(out, payload, sort_keys=True)
    alert = (
        f", alert when {threshold.aggregate} {threshold.op} "
        f"{threshold.value:g}"
        if threshold is not None
        else ""
    )
    log.info(
        f"registered {args.name!r}: {args.expression!r} over a "
        f"{window.kind} {window.width_s * 1e3:g} ms window{alert}"
    )
    log.info(f"stream config ({len(queries)} queries) written to {out}")
    return 0


def _cmd_stream_status(args: argparse.Namespace) -> int:
    from repro.stream import (
        StandingQueryRegistry,
        load_stream_config,
        validate_stream_status,
    )
    from repro.system.streaming import StreamingIngestor

    queries, interval = load_stream_config(args.config)
    lines = read_log_lines(args.log)
    system = MithriLogSystem(seed=args.seed)
    ingestor = StreamingIngestor(system, batch_lines=args.batch_lines)
    registry = StandingQueryRegistry(system, interval_s=interval)
    for standing in queries:
        registry.register(standing)
    registry.attach(ingestor)
    recorder = None
    if args.bundle_out is not None:
        from repro.obs.recorder import FlightRecorder

        recorder = FlightRecorder(
            registry.monitor, system=system, out_dir=args.bundle_out
        )
    with ingestor:
        for line in lines:
            ingestor.append(line)
    payload = registry.status_payload()
    problems = validate_stream_status(payload)
    if problems:
        log.error(f"status snapshot invalid: {'; '.join(problems)}")
        return 1
    firing = []
    for entry in payload["queries"]:
        name = entry["definition"]["name"]
        state = entry["alert_state"]
        window_state = entry["window_state"]
        values = registry.aggregator(name).values(system.clock.now)
        log.info(
            f"  {name}: {state}  "
            f"count={values['count']:g} "
            f"rate={values['rate']:g}/s "
            f"distinct={values['distinct_templates']:g} "
            f"({window_state['evaluations']} evaluations, "
            f"{window_state['matches_total']:,} matches)"
        )
        if state == "firing":
            firing.append(name)
    if recorder is not None:
        for path in recorder.written:
            log.info(f"  incident artifact: {path}")
    if args.out is not None:
        write_json(args.out, payload, sort_keys=True)
        log.info(f"stream status written to {args.out}")
    if firing:
        log.warning(f"{len(firing)} standing quer(ies) firing: {firing}")
        return 1 if args.fail_on_alert else 0
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    from repro.compression import (
        GzipCompressor,
        LZ4LikeCompressor,
        LZAHCompressor,
        LZRW1Compressor,
        SnappyLikeCompressor,
        compression_ratio,
    )

    data = Path(args.log).read_bytes()
    log.info(f"{args.log}: {len(data) / 1e6:.2f} MB")
    for codec in (
        LZAHCompressor(),
        LZRW1Compressor(),
        LZ4LikeCompressor(),
        SnappyLikeCompressor(),
        GzipCompressor(),
    ):
        log.info(f"  {codec.name:<6} {compression_ratio(codec, data):6.2f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MithriLog reproduction: near-storage log analytics",
    )
    parser.add_argument("--seed", type=int, default=0, help="deterministic seed")
    volume = parser.add_mutually_exclusive_group()
    volume.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress reports; only warnings, errors and payload output",
    )
    volume.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print debug diagnostics (phase breakdowns)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic HPC4-like log file")
    p.add_argument("--dataset", choices=sorted(DATASET_SPECS), required=True)
    p.add_argument("--lines", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("ingest", help="ingest a log file into a store directory")
    p.add_argument("--log", required=True)
    p.add_argument("--store", required=True)
    p.add_argument(
        "--timestamps",
        action="store_true",
        help="extract per-line epochs (HPC4 column 2) for time-bounded queries",
    )
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("query", help="run a boolean token query against a store")
    p.add_argument("--store", required=True)
    p.add_argument("expression", help='e.g. \'"Failed" AND NOT "pbs_mom:"\'')
    p.add_argument("--no-index", action="store_true", help="force a full scan")
    p.add_argument("--limit", type=int, default=10)
    p.add_argument("--since", type=float, help="epoch lower bound (snapshots)")
    p.add_argument("--until", type=float, help="epoch upper bound (snapshots)")
    p.add_argument(
        "--stop-after", type=int,
        help="cancel the scan after this many matches (top-k)",
    )
    p.add_argument(
        "--newest-first", action="store_true",
        help="visit pages newest-first (tail exploration)",
    )
    p.add_argument(
        "--aggregate", action="store_true",
        help="print a summary (top hosts/fields, rate) instead of lines",
    )
    p.add_argument(
        "--explain", action="store_true",
        help="print the planner's decision instead of executing",
    )
    p.add_argument(
        "--analyze", action="store_true",
        help="attach an EXPLAIN ANALYZE report to the results",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="parallelise the scan over this many processes "
        "(results are identical at any worker count)",
    )
    p.add_argument(
        "--sample-fraction", type=float, default=None,
        help="approximate scan: read only this seeded fraction of "
        "candidate pages (0 < f < 1) and report a match estimate with "
        "a confidence interval",
    )
    p.add_argument(
        "--sample-seed", type=int, default=0,
        help="seed for --sample-fraction page selection (independent of "
        "the global --seed, which must match the store's ingest seed)",
    )
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "explain",
        help="show a query's plan tree (EXPLAIN / EXPLAIN ANALYZE)",
    )
    p.add_argument("--store", required=True)
    p.add_argument("expression", help='e.g. \'"Failed" AND NOT "pbs_mom:"\'')
    p.add_argument(
        "--analyze", action="store_true",
        help="execute the query and report actual times, utilization "
        "and the bottleneck (plain EXPLAIN touches no storage)",
    )
    p.add_argument("--no-index", action="store_true", help="force a full scan")
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the analyzed scan (the report's "
        "canonical content is identical at any worker count)",
    )
    p.add_argument(
        "--format", choices=("tree", "json"), default="tree",
        help="human plan tree or the full JSON report",
    )
    p.add_argument("--out", help="also write the JSON report to this file")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("tag", help="tag a log's lines with FT-tree template ids")
    p.add_argument("--log", required=True)
    p.add_argument("--top", type=int, default=8)
    p.set_defaults(func=_cmd_tag)

    p = sub.add_parser("templates", help="extract FT-tree templates from a log")
    p.add_argument("--log", required=True)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--prune", type=int, default=32)
    p.set_defaults(func=_cmd_templates)

    p = sub.add_parser("stats", help="describe a store directory")
    p.add_argument("--store", required=True)
    p.add_argument(
        "--format", choices=("human", "prometheus", "json"), default="human",
        help="human report, Prometheus exposition text, or a JSON snapshot",
    )
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "trace",
        help="run a query with span tracing, write Chrome trace JSON",
    )
    p.add_argument("--store", required=True)
    p.add_argument("expression", help='e.g. \'"Failed" AND NOT "pbs_mom:"\'')
    p.add_argument("--out", default="trace.json", help="trace file to write")
    p.add_argument("--no-index", action="store_true", help="force a full scan")
    p.add_argument(
        "--utilization", action="store_true",
        help="also export per-resource occupancy counter tracks",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "watch-perf",
        help="fail when a benchmark trajectory file shows a perf regression",
    )
    p.add_argument(
        "files", nargs="+",
        help="trajectory JSON files (concatenated in order, e.g. the "
        "committed baseline plus a fresh run's artifact)",
    )
    p.add_argument("--metric", default="speedup")
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--min-runs", type=int, default=None)
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(func=_cmd_watch_perf)

    p = sub.add_parser("compress", help="Table 5 codec comparison on a log file")
    p.add_argument("--log", required=True)
    p.set_defaults(func=_cmd_compress)

    def _service_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--log", required=True, help="corpus to ingest and query")
        p.add_argument("--tenants", type=int, default=3)
        p.add_argument("--skew", type=float, default=1.2,
                       help="Zipf exponent for tenant traffic shares")
        p.add_argument("--pool", type=int, default=16,
                       help="template queries in the workload pool")
        p.add_argument("--queue-limit", type=int, default=64,
                       help="per-tenant admission queue bound")
        p.add_argument("--max-backlog", type=int, default=32,
                       help="global backlog before load shedding engages")
        p.add_argument("--duration", type=float, default=0.3,
                       help="simulated seconds of offered traffic")
        p.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline (simulated milliseconds)")
        p.add_argument("--workers", type=int, default=1,
                       help="scan worker processes (outcomes are identical "
                       "at any worker count)")
        p.add_argument("--journal-out", default=None,
                       help="write the run's query journal (JSON) to this "
                       "file for `repro workload mine`/`report`")
        p.add_argument("--journal-max-entries", type=int, default=None,
                       help="ring-buffer bound on retained journal records; "
                       "older records are evicted but aggregate per-tenant "
                       "tallies stay exact")
        p.add_argument("--slo-config", default=None,
                       help="JSON SLO config (kind mithrilog_slo_config) "
                       "enabling live burn-rate alerting during the run")
        p.add_argument("--bundle-out", default=None,
                       help="directory where the flight recorder writes an "
                       "incident bundle (JSON + markdown) each time an "
                       "alert fires; implies default SLOs when no "
                       "--slo-config is given")
        p.add_argument("--sample-fraction", type=float, default=None,
                       help="opt the generated traffic into the approximate "
                       "admission class: under overload requests are "
                       "degraded to a sampled scan at this page fraction "
                       "(0 < f < 1) instead of being shed")

    p = sub.add_parser(
        "serve-sim",
        help="serve one simulated multi-tenant session; exit 1 when loss "
        "exceeds --max-loss",
    )
    _service_args(p)
    p.add_argument("--offered-qps", type=float, default=500.0,
                   help="open-loop Poisson arrival rate")
    p.add_argument("--max-loss", type=float, default=1.0,
                   help="degraded threshold on the shed+rejected+timed-out "
                   "fraction (exit 1 above it)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="also print a JSON summary to stdout")
    p.set_defaults(func=_cmd_serve_sim)

    p = sub.add_parser(
        "loadgen",
        help="sweep offered load against a fresh service; exit 1 when p99 "
        "exceeds --p99-budget-ms",
    )
    _service_args(p)
    p.add_argument("--multiples", default="0.5,1,2,4",
                   help="comma-separated offered-load multiples of capacity")
    p.add_argument("--p99-budget-ms", type=float, default=None,
                   help="latency budget the worst sweep point must meet")
    p.add_argument("--out", default=None,
                   help="write sweep records (watch-perf format) to this file")
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser(
        "workload",
        help="mine query journals and build A/B workload reports",
    )
    wsub = p.add_subparsers(dest="workload_command", required=True)

    w = wsub.add_parser(
        "mine",
        help="slice a query journal: hot templates, per-tenant/stage "
        "stats, optional drift between windows",
    )
    w.add_argument("--journal", required=True, help="journal JSON file")
    w.add_argument("--window", default=None,
                   help="mine only this journal window (default: all records)")
    w.add_argument("--top", type=int, default=8,
                   help="hot templates to show")
    w.add_argument("--drift-windows", default=None, metavar="A,B",
                   help="also report drift between two windows")
    w.add_argument("--json", action="store_true", dest="as_json",
                   help="print the profile JSON to stdout")
    w.add_argument("--out", default=None,
                   help="write the profile JSON to this file")
    w.set_defaults(func=_cmd_workload_mine)

    w = wsub.add_parser(
        "report",
        help="diff two journals (or two windows) slice by slice; flags "
        "regressions an aggregate win would hide",
    )
    w.add_argument("--journal-a", required=True,
                   help="baseline journal JSON file")
    w.add_argument("--journal-b", default=None,
                   help="candidate journal (default: same file as A, "
                   "compare two windows instead)")
    w.add_argument("--window-a", default=None, help="window to mine from A")
    w.add_argument("--window-b", default=None, help="window to mine from B")
    w.add_argument("--label-a", default="baseline")
    w.add_argument("--label-b", default="candidate")
    w.add_argument("--threshold", type=float, default=0.2,
                   help="relative change that counts as material (0.2 = 20%%)")
    w.add_argument("--top", type=int, default=12,
                   help="slices to show in the markdown tables")
    w.add_argument("--out", default=None,
                   help="write the report JSON to this file")
    w.add_argument("--md-out", default=None,
                   help="write the rendered markdown to this file")
    w.add_argument("--fail-on-hidden", action="store_true",
                   help="exit 1 when any hidden per-slice regression is found")
    w.set_defaults(func=_cmd_workload_report)

    p = sub.add_parser(
        "slo",
        help="validate SLO configs and replay journals through the "
        "burn-rate alert engine",
    )
    ssub = p.add_subparsers(dest="slo_command", required=True)

    s = ssub.add_parser(
        "check",
        help="validate an SLO config; optionally replay a journal "
        "against it",
    )
    s.add_argument("--config", required=True,
                   help="SLO config JSON (kind mithrilog_slo_config)")
    s.add_argument("--journal", default=None,
                   help="replay this query journal through the config's SLOs")
    s.add_argument("--fail-on-alert", action="store_true",
                   help="exit 1 when the replay fires any alert")
    s.add_argument("--json", action="store_true", dest="as_json",
                   help="print the monitor summary JSON to stdout")
    s.set_defaults(func=_cmd_slo_check)

    s = ssub.add_parser(
        "watch",
        help="replay a journal through the alert engine, print the "
        "transition timeline, write incident bundles; exit 1 when any "
        "alert fired",
    )
    s.add_argument("--journal", required=True, help="journal JSON file")
    s.add_argument("--config", default=None,
                   help="SLO config JSON (default: stock objectives)")
    s.add_argument("--bundle-out", default=None,
                   help="directory for incident bundles (JSON + markdown)")
    s.add_argument("--lookback-s", type=float, default=0.25,
                   help="simulated seconds of evidence captured before "
                   "an alert fires")
    s.add_argument("--json", action="store_true", dest="as_json",
                   help="print the monitor summary JSON to stdout")
    s.set_defaults(func=_cmd_slo_watch)

    p = sub.add_parser(
        "stream",
        help="register standing queries and evaluate them over a log "
        "stream (windowed aggregates + threshold alerts)",
    )
    tsub = p.add_subparsers(dest="stream_command", required=True)

    s = tsub.add_parser(
        "register",
        help="add a standing query to a stream config file",
    )
    s.add_argument("--name", required=True,
                   help="unique standing-query name")
    s.add_argument("--expression", required=True,
                   help="query expression (same algebra as repro query)")
    s.add_argument("--window", choices=("tumbling", "sliding"),
                   default="tumbling", help="window kind")
    s.add_argument("--width-ms", type=float, default=1000.0,
                   help="window width in simulated milliseconds")
    s.add_argument("--aggregate",
                   choices=("count", "rate", "distinct_templates"),
                   default="count",
                   help="window aggregate the threshold tests")
    s.add_argument("--threshold", type=float, default=None,
                   help="alert when the aggregate crosses this value")
    s.add_argument("--op", choices=(">=", "<="), default=">=",
                   help="breach direction for --threshold")
    s.add_argument("--check-interval-ms", type=float, default=5.0,
                   help="monitor evaluation interval for a new config")
    s.add_argument("--out", default="stream.json",
                   help="stream config file (appended to when it exists)")
    s.set_defaults(func=_cmd_stream_register)

    s = tsub.add_parser(
        "status",
        help="stream a log through the registered standing queries and "
        "report window values and alert states",
    )
    s.add_argument("--config", required=True,
                   help="stream config JSON (kind mithrilog_stream_config)")
    s.add_argument("--log", required=True, help="log file to stream")
    s.add_argument("--seed", type=int, default=0,
                   help="simulation seed")
    s.add_argument("--batch-lines", type=int, default=512,
                   help="ingest flush batch size (lines)")
    s.add_argument("--out", default=None,
                   help="write the status snapshot JSON here")
    s.add_argument("--bundle-out", default=None,
                   help="directory for incident bundles when alerts fire")
    s.add_argument("--fail-on-alert", action="store_true",
                   help="exit 1 when any standing query is firing")
    s.set_defaults(func=_cmd_stream_status)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.quiet:
        log.quiet()
    elif args.verbose:
        log.verbose()
    else:
        log.set_level("info")  # reset: main() may be called repeatedly
    try:
        return args.func(args)
    except (MithriLogError, TraceError) as exc:
        log.error(str(exc))
        return 1
    except FileNotFoundError as exc:
        log.error(str(exc))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
