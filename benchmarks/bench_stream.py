"""Streaming benchmark: standing-query alerting + sampled-scan goodput.

Standalone (``python benchmarks/bench_stream.py``), two parts on the
simulated clock:

**Part A — alert detection latency.** A synthetic log is streamed
through a :class:`~repro.system.streaming.StreamingIngestor` with a
standing query (``ERROR`` over a sliding window, count threshold)
registered on a :class:`~repro.stream.standing.StandingQueryRegistry`.
Mid-stream a contiguous burst of matching lines arrives. The burst's
*onset* is stamped at the flush that first seals burst lines (the
instant the data becomes visible to incremental evaluation), and the
registry's threshold alert must reach ``firing`` within a bounded
amount of **simulated** time of that onset. The identical stream
without the burst must stay silent.

**Part B — sampled scans under overload.** The same corpus is served
by the multi-tenant :class:`~repro.service.QueryService` at 2x and 4x
measured capacity, three ways: exact at 1x (the reference), overload
handled by shedding, and overload handled by degrading sheddable
requests into the approximate admission class (seeded page sampling +
Horvitz-Thompson estimates). Sampling must recover goodput versus
shedding while keeping the estimates honest against exact ground truth.

Gates (non-zero exit, what the CI ``stream-smoke`` job keys off):

1. zero alerts on the clean (burst-free) stream;
2. the burst stream fires, within ``--detect-ceiling`` simulated
   seconds of burst onset, and the status artifact validates;
3. two identical burst runs produce identical status payloads and
   alert timelines (determinism), and two identical sampled-overload
   runs produce identical outcome signatures;
4. every service run conserves outcomes
   (``ok+rejected+shed+timed_out+approximated == submitted``);
5. sampled goodput >= ``--goodput-ratio`` x shedding goodput at every
   overload multiple;
6. the mean relative error of the sampled estimates vs exact ground
   truth stays under ``--error-ceiling``, and the journal of the
   sampled run validates (mode/outcome consistency).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _harness import outcome_signature
from repro.datasets.synthetic import generator_for
from repro.obs.expose import bootstrap_families
from repro.obs.journal import QueryJournal, validate_journal_payload
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.service import (
    QueryService,
    estimate_capacity,
    make_tenants,
    open_loop_requests,
)
from repro.stream import (
    StandingQuery,
    StandingQueryRegistry,
    Threshold,
    WindowSpec,
    validate_stream_status,
)
from repro.system.mithrilog import MithriLogSystem
from repro.system.streaming import StreamingIngestor
from repro.core.query import parse_query


# ---------------------------------------------------------------------------
# Part A: standing-query burst detection
# ---------------------------------------------------------------------------


def stream_lines(args, with_burst: bool) -> list[tuple[bytes, bool]]:
    """(line, is_burst) pairs: a steady INFO stream, optionally with a
    contiguous ERROR burst in the middle."""
    out = []
    for i in range(args.stream_lines):
        burst = with_burst and (
            args.burst_start <= i < args.burst_start + args.burst_width
        )
        if burst:
            line = f"svc worker-{i % 8} ERROR backend timeout req={i}"
        else:
            line = f"svc worker-{i % 8} INFO served req={i} bytes={i % 701}"
        out.append((line.encode(), burst))
    return out


def run_stream(args, with_burst: bool):
    """One fresh registry-isolated stream run; returns run facts."""
    registry = MetricsRegistry()
    with use_registry(registry):
        bootstrap_families(registry)
        system = MithriLogSystem(seed=args.seed)
        ingestor = StreamingIngestor(system, batch_lines=args.batch_lines)
        standing = StandingQueryRegistry(system, interval_s=args.interval)
        standing.register(
            StandingQuery(
                name="error-burst",
                query=parse_query("ERROR"),
                window=WindowSpec(
                    kind="sliding", width_s=args.window_ms / 1e3
                ),
                threshold=Threshold(
                    value=args.threshold, aggregate="count", op=">="
                ),
            )
        )
        onset = {"appended": False, "at_s": None}

        def stamp_onset(lines_flushed: int, now_s: float) -> None:
            del lines_flushed
            if onset["appended"] and onset["at_s"] is None:
                onset["at_s"] = now_s

        ingestor.flush_listeners.append(stamp_onset)
        standing.attach(ingestor)
    with ingestor:
        for line, is_burst in stream_lines(args, with_burst):
            if is_burst:
                onset["appended"] = True
            ingestor.append(line)
    fired = [a for a in standing.monitor.alerts if a.fired_at_s is not None]
    return standing, onset["at_s"], fired


def part_a(args, failures: list[str]) -> dict:
    clean, _, clean_fired = run_stream(args, with_burst=False)
    print(
        f"clean stream: {clean.evaluations} evaluations, "
        f"{len(clean_fired)} alert(s)"
    )
    if clean_fired:
        failures.append(
            f"false positive: {len(clean_fired)} alert(s) fired on the "
            "burst-free stream"
        )

    standing, onset_s, fired = run_stream(args, with_burst=True)
    detection_s = None
    if onset_s is None:
        failures.append("the burst never reached a flush (onset unset)")
    elif not fired:
        failures.append("no alert fired on the burst stream (detection miss)")
    else:
        first_fire_s = min(a.fired_at_s for a in fired)
        detection_s = first_fire_s - onset_s
        print(
            f"burst stream: onset {onset_s * 1e3:.3f} ms sim, alert fired "
            f"{first_fire_s * 1e3:.3f} ms sim -> detection latency "
            f"{detection_s * 1e3:.3f} ms sim"
        )
        if detection_s > args.detect_ceiling:
            failures.append(
                f"detection latency {detection_s * 1e3:.3f} ms sim exceeds "
                f"ceiling {args.detect_ceiling * 1e3:.3f} ms"
            )
    payload = standing.status_payload()
    problems = validate_stream_status(payload)
    if problems:
        failures.append(f"stream status failed validation: {problems}")

    # determinism: an identical burst run, bit-identical state
    standing2, onset2_s, _ = run_stream(args, with_burst=True)
    if standing2.status_payload() != payload:
        failures.append("identical burst runs produced different status")
    if standing2.monitor.timeline() != standing.monitor.timeline():
        failures.append("identical burst runs produced different timelines")
    if onset2_s != onset_s:
        failures.append("identical burst runs stamped different onsets")

    if args.status_out is not None:
        out = Path(args.status_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote stream status to {out}")
    return {
        "bench": "stream",
        "config": "detection",
        "detection_latency_ms": (
            round(detection_s * 1e3, 4) if detection_s is not None else None
        ),
        "onset_ms": round(onset_s * 1e3, 4) if onset_s is not None else None,
        "evaluations": standing.evaluations,
        "clean_alerts": len(clean_fired),
        "burst_alerts": len(fired),
    }


# ---------------------------------------------------------------------------
# Part B: sampled scans vs shedding under overload
# ---------------------------------------------------------------------------


def broad_pool(lines, max_queries: int):
    """Broad single-token queries — the sampled-scan sweet spot.

    Approximate answers pay off for exploratory "roughly how often"
    filters whose matches spread across many pages; the service pool's
    multi-token template queries narrow to a couple of pages, where
    page sampling can neither save work nor estimate honestly. Tokens
    are picked by document frequency (5-80% of lines), most common
    first, ties broken lexically — fully seed/host independent.
    """
    import re

    word = re.compile(rb"^[A-Za-z][A-Za-z0-9_.:-]*$")
    df: dict[bytes, int] = {}
    for line in lines:
        for token in set(line.split()):
            df[token] = df.get(token, 0) + 1
    n = len(lines)
    tokens = [
        t for t, c in df.items() if 0.05 <= c / n <= 0.8 and word.match(t)
    ]
    tokens.sort(key=lambda t: (-df[t], t))
    return [parse_query(t.decode()) for t in tokens[:max_queries]]


def part_b(args, failures: list[str]) -> list[dict]:
    lines = list(
        generator_for(args.dataset, seed=args.seed).iter_lines(args.lines)
    )
    tenants = make_tenants(args.tenants, queue_limit=args.queue_limit)

    pool = broad_pool(lines, max_queries=args.pool)

    def build(approx: bool, journal=None):
        registry = MetricsRegistry()
        with use_registry(registry):
            bootstrap_families(registry)
            system = MithriLogSystem(seed=args.seed)
            system.ingest(lines)
            service = QueryService(
                system,
                tenants,
                max_backlog=args.max_backlog,
                journal=journal,
                approx_on_overload=approx,
            )
        return system, service

    system, service = build(approx=False)
    truth = {
        str(q): system.query(q).per_query_counts[0] for q in pool
    }
    capacity = estimate_capacity(lambda: service, pool, tenants, seed=args.seed)
    print(
        f"corpus: {args.dataset} x {len(lines):,} lines, {len(tenants)} "
        f"tenants, {len(pool)} pool queries; measured capacity "
        f"{capacity:,.0f} q/s"
    )

    def traffic(load: float, fraction):
        return open_loop_requests(
            pool,
            tenants,
            offered_qps=capacity * load,
            duration_s=args.duration,
            seed=args.seed,
            deadline_s=args.deadline_ms / 1e3,
            priorities=(0,),
            sample_fraction=fraction,
        )

    def serve(config: str, load: float, approx: bool, fraction):
        journal = QueryJournal()
        _, service = build(approx=approx, journal=journal)
        t0 = time.perf_counter()
        report = service.run(traffic(load, fraction))
        wall_s = time.perf_counter() - t0
        if not report.conserved():
            failures.append(f"{config}: outcome conservation violated")
        approximated = [
            r for r in report.responses if r.outcome.value == "approximated"
        ]
        errors = [
            r.estimate.relative_error(truth[str(r.request.query)])
            for r in approximated
            if r.estimate is not None
        ]
        covered = [
            r.estimate.covers(truth[str(r.request.query)])
            for r in approximated
            if r.estimate is not None
        ]
        record = {
            "bench": "stream",
            "config": config,
            "goodput_qps": round(report.goodput_qps, 2),
            "p99_ms": round(report.latency_percentile_s(99) * 1e3, 4),
            "loss_rate": round(report.shed_rate, 4),
            "approximated": len(approximated),
            "wall_s": round(wall_s, 3),
        }
        if errors:
            record["mean_rel_error"] = round(sum(errors) / len(errors), 4)
            record["ci_coverage"] = round(sum(covered) / len(covered), 4)
        print(
            f"{config}: goodput {report.goodput_qps:,.0f} q/s, loss "
            f"{100 * report.shed_rate:.1f}%, {len(approximated)} "
            "approximated"
            + (
                f", mean rel error {record['mean_rel_error']:.3f}, "
                f"CI coverage {100 * record['ci_coverage']:.0f}%"
                if errors
                else ""
            )
        )
        journal_problems = validate_journal_payload(journal.to_payload())
        if journal_problems:
            failures.append(
                f"{config}: journal failed validation: {journal_problems}"
            )
        return record, report, journal

    records = []
    exact_record, _, _ = serve("exact_x1", 1.0, approx=False, fraction=None)
    records.append(exact_record)

    sampled_reports = {}
    for load in args.loads:
        shed_record, _, _ = serve(
            f"shed_x{load:g}", load, approx=False, fraction=None
        )
        sampled_record, sampled_report, sampled_journal = serve(
            f"sampled_x{load:g}", load, approx=True, fraction=args.fraction
        )
        records.extend([shed_record, sampled_record])
        sampled_reports[load] = sampled_report
        ratio = (
            sampled_record["goodput_qps"] / shed_record["goodput_qps"]
            if shed_record["goodput_qps"] > 0
            else float("inf")
        )
        print(f"  goodput ratio sampled/shed at x{load:g}: {ratio:.2f}")
        if ratio < args.goodput_ratio:
            failures.append(
                f"sampled goodput only {ratio:.2f}x shedding at x{load:g} "
                f"overload (gate {args.goodput_ratio:g}x)"
            )
        if sampled_record["approximated"] == 0:
            failures.append(
                f"x{load:g} overload degraded nothing to sampled scans"
            )
        elif sampled_record["mean_rel_error"] > args.error_ceiling:
            failures.append(
                f"mean estimate error {sampled_record['mean_rel_error']:.3f} "
                f"at x{load:g} exceeds ceiling {args.error_ceiling:g}"
            )
        if args.journal_out is not None and load == args.loads[-1]:
            sampled_journal.write(args.journal_out)
            print(f"wrote sampled-run journal to {args.journal_out}")

    # determinism: repeat the heaviest sampled run
    load = args.loads[-1]
    journal = QueryJournal()
    _, service = build(approx=True, journal=journal)
    repeat = service.run(traffic(load, args.fraction))
    if outcome_signature(repeat) != outcome_signature(sampled_reports[load]):
        failures.append(
            "identical sampled-overload runs produced different outcomes"
        )
    return records


def run(args: argparse.Namespace) -> int:
    failures: list[str] = []
    records = [part_a(args, failures)]
    records.extend(part_b(args, failures))

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    trajectory = json.loads(out.read_text()) if out.exists() else []
    trajectory.extend(records)
    out.write_text(json.dumps(trajectory, indent=1) + "\n")
    print(f"wrote {len(records)} records to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # part A: the stream under watch
    parser.add_argument("--stream-lines", type=int, default=4000,
                        help="lines in the synthetic stream")
    parser.add_argument("--burst-start", type=int, default=1600,
                        help="line index where the error burst begins")
    parser.add_argument("--burst-width", type=int, default=400,
                        help="lines in the error burst")
    parser.add_argument("--batch-lines", type=int, default=256,
                        help="ingest flush batch size")
    parser.add_argument("--window-ms", type=float, default=10.0,
                        help="standing-query sliding window (simulated ms)")
    parser.add_argument("--threshold", type=float, default=50.0,
                        help="window match count that breaches")
    parser.add_argument("--interval", type=float, default=0.0002,
                        help="monitor evaluation cadence (simulated s)")
    parser.add_argument("--detect-ceiling", type=float, default=0.02,
                        help="max burst-onset -> alert-firing latency "
                        "(simulated seconds)")
    # part B: the overloaded service
    parser.add_argument("--dataset", default="Liberty2")
    parser.add_argument("--lines", type=int, default=40000)
    parser.add_argument("--tenants", type=int, default=3)
    parser.add_argument("--pool", type=int, default=12)
    parser.add_argument("--queue-limit", type=int, default=512)
    parser.add_argument("--max-backlog", type=int, default=16)
    parser.add_argument("--duration", type=float, default=0.05,
                        help="simulated seconds of offered traffic")
    parser.add_argument("--deadline-ms", type=float, default=25.0)
    parser.add_argument("--loads", type=lambda s: [float(x) for x in
                        s.split(",")], default=[2.0, 4.0],
                        help="overload multiples of measured capacity")
    parser.add_argument("--fraction", type=float, default=0.1,
                        help="sampled fraction of candidate pages")
    parser.add_argument("--goodput-ratio", type=float, default=1.5,
                        help="min sampled/shedding goodput ratio")
    parser.add_argument("--error-ceiling", type=float, default=0.35,
                        help="max mean relative error of sampled estimates")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_stream.json")
    parser.add_argument("--status-out", default=None,
                        help="write the burst run's status snapshot here")
    parser.add_argument("--journal-out", default=None,
                        help="write the heaviest sampled run's journal here")
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
