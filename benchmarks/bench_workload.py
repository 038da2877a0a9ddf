"""Workload-observability benchmark: the mined-hints loop, measured.

Standalone (``python benchmarks/bench_workload.py``): builds a corpus
and a deliberately bimodal query pool — short one-token templates
(cheap index lookups) plus one Section 7.1 "eight" union template whose
~50 token lookups make every pass it rides expensive — then runs the
same seeded overload traffic twice on the simulated clock:

1. **baseline** — no hints; the slow template shares passes and sheds
   like everyone else, and its cost leaks into every co-rider's latency;
2. **hinted** — the baseline run's journal is mined
   (:func:`repro.obs.workload.mine`), a
   :class:`~repro.service.hints.TemplateHintProvider` is built *from
   that profile* (min-service-time identification), and the identical
   traffic is re-served with the hints feeding admission demotion and
   pass quarantine.

The two journals are diffed by :func:`repro.obs.report.build_ab_report`
and the per-slice deltas land in ``BENCH_workload.json`` (watch-perf
format). This is a closed loop over *measured* data: nothing tells the
scheduler which template is slow except the journal itself.

Gates (non-zero exit, what the CI ``workload-smoke`` job keys off):

1. both runs are deterministic and conserve outcomes (journal
   cross-check included);
2. mining identifies the planted slow template from the baseline
   journal alone;
3. the feedback loop *wins*: at least one slice that was overloaded in
   the baseline (non-zero loss) improves its goodput or p99 under
   hints, and aggregate goodput does not regress;
4. the journal and A/B report artifacts pass their schema validators.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _harness import outcome_signature
from repro.core.query import Query
from repro.datasets.synthetic import generator_for
from repro.obs.journal import (
    QueryJournal,
    template_fingerprint,
    validate_journal_payload,
)
from repro.obs.report import build_ab_report, validate_ab_report
from repro.obs.workload import mine
from repro.service import (
    QueryService,
    TemplateHintProvider,
    estimate_capacity,
    make_tenants,
    open_loop_requests,
)
from repro.system.mithrilog import MithriLogSystem
from repro.templates.fttree import FTTree, FTTreeParams
from repro.templates.querygen import build_workload


def build_pool(lines, fast_queries: int, seed: int):
    """Bimodal pool: short cheap templates plus one expensive union.

    Fast queries are single mid-frequency tokens (one index lookup
    each); the slow one is an FT-tree "eight" — the OR of eight full
    templates, ~50 token lookups per pass. Index time dominates the
    simulated scan at bench scale, so the cost ratio is real, and a
    shared pass is paced by its most expensive rider.
    """
    counts = Counter()
    for line in lines:
        for token in line.split():
            if 4 <= len(token) <= 12:
                counts[token] += 1
    mid = [
        t.decode() for t, c in counts.most_common() if 20 <= c <= len(lines) // 10
    ][:fast_queries]
    fast = [Query.single(token) for token in mid]
    tree = FTTree.from_lines(
        list(lines),
        FTTreeParams(max_depth=10, prune_threshold=32, max_doc_frequency=0.9),
    )
    workload = build_workload(tree, num_pairs=0, num_eights=2, seed=seed)
    slow = workload.eights[0]
    return fast + [slow], template_fingerprint(str(slow))


def run(args: argparse.Namespace) -> int:
    lines = list(generator_for(args.dataset, seed=args.seed).iter_lines(args.lines))
    tenants = make_tenants(args.tenants, queue_limit=args.queue_limit)
    pool, slow_fp = build_pool(lines, fast_queries=args.fast_queries, seed=args.seed)
    print(
        f"corpus: {args.dataset} x {len(lines):,} lines, {len(tenants)} tenants, "
        f"{len(pool)} pool queries (slow template {slow_fp})"
    )

    def service(hints=None, journal=None) -> QueryService:
        system = MithriLogSystem(seed=args.seed)
        system.ingest(lines)
        return QueryService(
            system,
            tenants,
            max_backlog=args.max_backlog,
            journal=journal,
            hints=hints,
        )

    capacity = estimate_capacity(
        lambda: service(), pool, tenants, seed=args.seed
    )
    print(f"measured capacity: {capacity:,.0f} q/s (simulated)")
    traffic = open_loop_requests(
        pool,
        tenants,
        offered_qps=capacity * args.overload,
        duration_s=args.duration,
        seed=args.seed,
    )
    print(
        f"offering {capacity * args.overload:,.0f} q/s "
        f"(x{args.overload:g} capacity) for {args.duration * 1e3:.0f} ms "
        f"simulated: {len(traffic)} requests"
    )

    failures = []

    # -- baseline: no hints, journal on -----------------------------------
    journal = QueryJournal()
    journal.begin_window("baseline")
    baseline = service(journal=journal).run(traffic)
    rerun = service().run(traffic)
    if outcome_signature(baseline) != outcome_signature(rerun):
        failures.append("identical baseline runs produced different outcomes")
    if not baseline.conserved():
        failures.append("baseline: outcome conservation violated")

    # -- close the loop: mine the journal, build hints from it -------------
    profile_base = mine(journal, window="baseline")
    hints = TemplateHintProvider.from_profile(
        profile_base,
        latency_factor=args.latency_factor,
        min_count=args.min_count,
    )
    print(f"mined hints: {hints.describe()}")
    if slow_fp not in hints.slow_templates:
        failures.append(
            f"mining missed the planted slow template {slow_fp} "
            f"(flagged: {sorted(hints.slow_templates)})"
        )

    # -- hinted: identical traffic, hints active ---------------------------
    journal.begin_window("hinted")
    hinted = service(hints=hints, journal=journal).run(traffic)
    if not hinted.conserved():
        failures.append("hinted: outcome conservation violated")
    if not journal.conserved():
        failures.append("journal tallies violate outcome conservation")
    journal_problems = validate_journal_payload(journal.to_payload())
    if journal_problems:
        failures.append(f"journal failed validation: {journal_problems}")

    profile_hint = mine(journal, window="hinted")
    report = build_ab_report(
        profile_base,
        profile_hint,
        label_a="baseline",
        label_b="hinted",
        threshold=args.threshold,
    )
    report_problems = validate_ab_report(report.to_payload())
    if report_problems:
        failures.append(f"A/B report failed validation: {report_problems}")

    agg = report.aggregate
    print(
        f"  baseline goodput {agg.goodput_a_qps:,.0f} q/s "
        f"p99 {agg.p99_a_ms:.2f} ms | hinted goodput "
        f"{agg.goodput_b_qps:,.0f} q/s p99 {agg.p99_b_ms:.2f} ms"
    )

    # -- gate: the loop must win on an overloaded slice --------------------
    # an "overloaded slice" lost work in the baseline (shed/rejected/
    # timed out); the loop earns its keep by improving such a slice's
    # goodput or p99 — an aggregate-only win would not prove targeting
    overloaded_wins = [
        s
        for s in report.improved_slices
        if s.loss_rate_a > 0 and s.count_a >= args.min_count
    ]
    for s in overloaded_wins:
        print(
            f"  overloaded slice improved: {s.dimension}:{s.value} "
            f"goodput {s.goodput_a_qps:,.0f} -> {s.goodput_b_qps:,.0f} q/s, "
            f"p99 {s.p99_a_ms:.2f} -> {s.p99_b_ms:.2f} ms "
            f"(baseline loss {100 * s.loss_rate_a:.1f}%)"
        )
    if not overloaded_wins:
        failures.append(
            "no overloaded slice improved under mined hints — "
            "the feedback loop had no measurable effect"
        )
    if agg.goodput_b_qps < agg.goodput_a_qps * (1 - args.threshold):
        failures.append(
            f"aggregate goodput regressed under hints: "
            f"{agg.goodput_a_qps:,.0f} -> {agg.goodput_b_qps:,.0f} q/s"
        )
    hidden = report.hidden_regressions
    if hidden:
        print(
            f"  note: {len(hidden)} hidden per-slice regressions "
            f"({', '.join(s.dimension + ':' + s.value for s in hidden[:4])})"
        )

    # -- artifacts ---------------------------------------------------------
    if args.journal_out is not None:
        journal.write(args.journal_out)
        print(f"wrote query journal to {args.journal_out}")
    if args.report_out is not None:
        report.write_json(args.report_out)
        print(f"wrote A/B report JSON to {args.report_out}")
    if args.md_out is not None:
        report.write_markdown(args.md_out)
        print(f"wrote A/B report markdown to {args.md_out}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1

    best = max(
        overloaded_wins,
        key=lambda s: (s.goodput_b_qps - s.goodput_a_qps, -s.p99_delta_ms),
    )
    records = [
        {
            "bench": "workload",
            "config": "baseline",
            "goodput_qps": round(agg.goodput_a_qps, 2),
            "p50_ms": round(agg.p50_a_ms, 4),
            "p99_ms": round(agg.p99_a_ms, 4),
            "loss_rate": round(agg.loss_rate_a, 4),
            "submitted": len(traffic),
        },
        {
            "bench": "workload",
            "config": "mined-hints",
            "goodput_qps": round(agg.goodput_b_qps, 2),
            "p50_ms": round(agg.p50_b_ms, 4),
            "p99_ms": round(agg.p99_b_ms, 4),
            "loss_rate": round(agg.loss_rate_b, 4),
            "submitted": len(traffic),
        },
        {
            "bench": "workload",
            "config": "hint-loop-delta",
            "goodput_gain": round(
                agg.goodput_b_qps / agg.goodput_a_qps, 4
            )
            if agg.goodput_a_qps
            else 0.0,
            "p99_delta_ms": round(agg.p99_delta_ms, 4),
            "overloaded_slices_improved": len(overloaded_wins),
            "hidden_regressions": len(hidden),
            "best_slice": f"{best.dimension}:{best.value}",
            "best_slice_goodput_gain": round(
                best.goodput_b_qps / best.goodput_a_qps, 4
            )
            if best.goodput_a_qps
            else 0.0,
            "slow_templates_flagged": len(hints.slow_templates),
        },
    ]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    trajectory = json.loads(out.read_text()) if out.exists() else []
    trajectory.extend(records)
    out.write_text(json.dumps(trajectory, indent=1) + "\n")
    print(f"wrote {len(records)} records to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="Liberty2")
    parser.add_argument("--lines", type=int, default=6000)
    parser.add_argument("--tenants", type=int, default=3)
    parser.add_argument("--fast-queries", type=int, default=8,
                        help="cheap single-token templates in the pool")
    parser.add_argument("--queue-limit", type=int, default=64)
    parser.add_argument("--max-backlog", type=int, default=6,
                        help="small backlog so overload actually sheds")
    parser.add_argument("--overload", type=float, default=2.0,
                        help="offered load as a multiple of measured capacity")
    parser.add_argument("--duration", type=float, default=0.06,
                        help="simulated seconds of offered traffic")
    parser.add_argument("--latency-factor", type=float, default=2.0,
                        help="min-service-time multiple that flags a "
                        "template as slow when mining hints")
    parser.add_argument("--min-count", type=int, default=4,
                        help="completions a template/slice needs before "
                        "mining or gating trusts it")
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="relative change the A/B report counts as "
                        "material")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_workload.json")
    parser.add_argument("--journal-out", default=None,
                        help="write the two-window query journal here")
    parser.add_argument("--report-out", default=None,
                        help="write the A/B report JSON here")
    parser.add_argument("--md-out", default=None,
                        help="write the A/B report markdown here")
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
