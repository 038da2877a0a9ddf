"""Service-quality benchmark for the multi-tenant query service.

Standalone (``python benchmarks/bench_service.py``): builds a synthetic
corpus, a Zipf-skewed tenant mix and a template query pool, then
measures two things on the **simulated** clock (records are therefore
machine-independent, unlike the wall-clock benches):

- **batched vs serial goodput** — the same saturating open-loop traffic
  served by a service that packs up to 8 queries per accelerator pass
  versus one forced to a single query per pass. This is the service-
  layer restatement of Section 4's concurrent-query claim, and the
  ``speedup`` record ``repro watch-perf`` watches.
- **an offered-load sweep** — 0.5x to 4x measured capacity; each level
  records goodput, p50/p95/p99 latency and the loss (shed + rejected +
  timed-out) rate into ``BENCH_service.json``.

Gates (non-zero exit, what the CI ``service-smoke`` job keys off):

1. runs are deterministic — two identical runs produce identical
   per-request outcomes;
2. outcome conservation holds for every report;
3. batched goodput is at least ``--min-speedup`` (default 2x) serial;
4. under overload, shedding engages and p99 stays within
   ``--p99-factor`` of its at-capacity value — bounded *because* excess
   work is refused, the admission-control claim the service exists for.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _harness import outcome_signature
from repro.datasets.synthetic import generator_for
from repro.service import (
    QueryService,
    make_tenants,
    open_loop_requests,
    query_pool,
    run_sweep,
)
from repro.system.mithrilog import MithriLogSystem


def run(args: argparse.Namespace) -> int:
    lines = list(generator_for(args.dataset, seed=args.seed).iter_lines(args.lines))
    tenants = make_tenants(args.tenants, queue_limit=args.queue_limit)
    pool = query_pool(lines, max_queries=args.pool, seed=args.seed)
    print(
        f"corpus: {args.dataset} x {len(lines):,} lines, "
        f"{len(tenants)} tenants, {len(pool)} pool queries"
    )

    def service(max_batch: int) -> QueryService:
        system = MithriLogSystem(seed=args.seed)
        system.ingest(lines)
        # full-scan passes: the concurrent-query amortisation the bench
        # quantifies lives on the scan path (one decompress+tokenize
        # stream feeds every rider); the index path answers selective
        # queries from postings and has little shared work to amortise
        return QueryService(
            system,
            tenants,
            max_batch=max_batch,
            max_backlog=args.max_backlog,
            use_index=False,
        )

    # -- capacity anchor (batched service, saturating burst) --------------
    from repro.service import estimate_capacity

    capacity = estimate_capacity(
        lambda: service(args.max_batch), pool, tenants, seed=args.seed
    )
    print(f"measured capacity: {capacity:,.0f} q/s (simulated)")

    # -- batched vs serial on identical saturating traffic ----------------
    traffic = open_loop_requests(
        pool,
        tenants,
        offered_qps=capacity * 1.5,
        duration_s=args.duration,
        seed=args.seed,
    )
    batched = service(args.max_batch).run(traffic)
    serial = service(1).run(traffic)
    rerun = service(args.max_batch).run(traffic)

    failures = []
    if outcome_signature(batched) != outcome_signature(rerun):
        failures.append("identical runs produced different outcomes")
    for name, report in (("batched", batched), ("serial", serial)):
        if not report.conserved():
            failures.append(f"{name}: outcome conservation violated")
    if serial.goodput_qps <= 0:
        failures.append("serial service served nothing")

    speedup = (
        batched.goodput_qps / serial.goodput_qps if serial.goodput_qps else 0.0
    )
    print(
        f"  batched goodput {batched.goodput_qps:,.0f} q/s "
        f"({batched.passes} passes) vs serial {serial.goodput_qps:,.0f} q/s "
        f"({serial.passes} passes): {speedup:.2f}x"
    )
    if speedup < args.min_speedup:
        failures.append(
            f"batched goodput only {speedup:.2f}x serial "
            f"(floor {args.min_speedup:.1f}x)"
        )

    # -- offered-load sweep ------------------------------------------------
    # the monitor reads journal records, so a monitored sweep is journalled
    monitored = args.slo_config is not None or args.bundle_out is not None
    journal = None
    if args.journal_out is not None or monitored:
        from repro.obs.journal import QueryJournal

        journal = QueryJournal()
    monitor = recorder = None
    if monitored:
        from repro.obs.recorder import FlightRecorder
        from repro.obs.slo import SLOMonitor, default_slos, load_slo_config

        if args.slo_config is not None:
            slos, interval = load_slo_config(args.slo_config)
        else:
            slos, interval = default_slos(), 0.005
        monitor = SLOMonitor(slos, interval_s=interval)
        recorder = FlightRecorder(
            monitor, journal=journal, out_dir=args.bundle_out
        )
    points = run_sweep(
        lambda: service(args.max_batch),
        pool,
        tenants,
        capacity_qps=capacity,
        load_multiples=tuple(args.multiples),
        duration_s=args.duration,
        deadline_s=args.deadline_ms / 1e3 if args.deadline_ms else None,
        seed=args.seed,
        journal=journal,
        monitor=monitor,
    )
    print("  load   offered     goodput   p50 ms   p99 ms   loss")
    for point in points:
        print(
            f"  x{point.load_multiple:<5g}{point.offered_qps:>8,.0f}"
            f"{point.goodput_qps:>12,.0f}{point.p50_ms:>9.2f}"
            f"{point.p99_ms:>9.2f}{100 * point.shed_rate:>6.1f}%"
        )

    at_capacity = min(points, key=lambda p: abs(p.load_multiple - 1.0))
    overload = max(points, key=lambda p: p.load_multiple)
    if overload.load_multiple > 1.0:
        if overload.shed_rate <= 0:
            failures.append(
                f"x{overload.load_multiple:g} overload shed nothing — "
                "admission control never engaged"
            )
        bound = args.p99_factor * at_capacity.p99_ms
        if overload.p99_ms > bound:
            failures.append(
                f"x{overload.load_multiple:g} p99 {overload.p99_ms:.2f} ms "
                f"exceeds {args.p99_factor:g}x the at-capacity p99 "
                f"({bound:.2f} ms) — latency is not bounded under overload"
            )

    if monitor is not None:
        fired = [a for a in monitor.alerts if a.fired_at_s is not None]
        print(
            f"  SLO monitor: {monitor.evaluations} evaluations, "
            f"{len(fired)} alert(s) fired across the sweep"
        )
        for alert in fired:
            print(
                f"    {alert.slo}: fired at {alert.fired_at_s * 1e3:.2f} ms "
                f"sim (burn {alert.burn_fast_at_fire:.2f}x fast / "
                f"{alert.burn_slow_at_fire:.2f}x slow)"
            )
        for path in getattr(recorder, "written", []):
            print(f"wrote incident artifact {path}")

    if journal is not None:
        if not journal.conserved():
            failures.append("sweep journal violates outcome conservation")
        elif args.journal_out is not None:
            journal.write(args.journal_out)
            print(
                f"wrote query journal ({len(journal.records)} records, "
                f"{len(journal.windows())} windows) to {args.journal_out}"
            )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1

    records = [p.record() for p in points]
    records.append(
        {
            "bench": "service",
            "config": f"batched-vs-serial-{args.max_batch}q",
            "speedup": round(speedup, 2),
            "batched_goodput_qps": round(batched.goodput_qps, 2),
            "serial_goodput_qps": round(serial.goodput_qps, 2),
        }
    )
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
    parser.add_argument("--lines", type=int, default=4000)
    parser.add_argument("--tenants", type=int, default=3)
    parser.add_argument("--pool", type=int, default=16)
    parser.add_argument("--queue-limit", type=int, default=64)
    parser.add_argument("--max-backlog", type=int, default=32)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--duration", type=float, default=0.02,
                        help="simulated seconds of traffic per level "
                        "(full-scan passes are sub-millisecond simulated, "
                        "so capacity is tens of kq/s — keep this short)")
    parser.add_argument("--deadline-ms", type=float, default=None)
    parser.add_argument("--multiples", type=float, nargs="+",
                        default=[0.5, 1.0, 2.0, 4.0])
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="batched/serial goodput floor (gate)")
    parser.add_argument("--p99-factor", type=float, default=6.0,
                        help="overload p99 bound, as a multiple of the "
                        "at-capacity p99 (gate)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument("--journal-out", default=None,
                        help="write the sweep's query journal (JSON, one "
                        "window per load level) to this file")
    parser.add_argument("--slo-config", default=None,
                        help="evaluate SLOs from this mithrilog_slo_config "
                        "JSON live across the sweep (default objectives "
                        "when --bundle-out is given without a config)")
    parser.add_argument("--bundle-out", default=None,
                        help="directory for incident bundles captured when "
                        "a sweep-time SLO alert fires")
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
