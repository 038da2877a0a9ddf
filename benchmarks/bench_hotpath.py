"""Host wall-clock benchmark for the scan hot path.

Standalone (``python benchmarks/bench_hotpath.py``): measures the three
executions of the same 16-query workload the scan executor provides —

- ``serial``   : one :meth:`scan_all` per query, page cache disabled.
  This is the pre-executor behaviour and the speedup baseline.
- ``batched``  : one :meth:`scan_all(*queries)` pass, cache disabled,
  on the default (vectorized) scan kernel. Every page is decompressed
  and tokenized once for all queries.
- ``batched-ref`` : the same batched pass pinned to the byte-at-a-time
  reference kernel — the yardstick the ``--min-vector-speedup`` gate
  measures the vectorized kernel against in the same run.
- ``parallel`` : the batched pass fanned out over ``--workers``
  processes through :class:`repro.exec.ScanExecutor`.
- ``cached``   : the batched pass re-run against a warm page cache.

Before timing anything it verifies the modes agree: per-query match
counts from the serial runs must equal the batched pass's counts, and
the reference-kernel, parallel, and cached passes must return byte
-identical data and identical simulated stats. Any divergence exits
non-zero, which is what the CI ``perf-smoke`` job keys off.

Results append to ``BENCH_hotpath.json`` (``--out``), one record per
mode per run: ``{"bench", "config", "wall_s", "speedup"}`` — the
trajectory file ``docs/PERFORMANCE.md`` explains how to read.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.query import Query, parse_query
from repro.core.tokenizer import split_tokens
from repro.datasets.synthetic import generator_for
from repro.system.mithrilog import MithriLogSystem

#: Simulated stats fields that must be identical at every worker count.
STAT_FIELDS = (
    "pages_read",
    "bytes_from_flash",
    "bytes_decompressed",
    "bytes_to_host",
    "lines_seen",
    "lines_kept",
    "scan_time_s",
    "read_retries",
)


def build_queries(lines: list[bytes], count: int) -> list[Query]:
    """``count`` template-style queries over the corpus's frequent tokens.

    Deterministic in the corpus: the most common tokens (skipping ones
    that appear on every line, which would match everything) become
    single-token and two-token AND queries, the way template queries
    probe for one message shape.
    """
    frequency = Counter(t for line in lines for t in set(split_tokens(line)))
    universal = len(lines)
    tokens = [
        t.decode()
        for t, n in frequency.most_common()
        if n < universal and t.isalnum()
    ]
    if len(tokens) < count + 1:
        raise SystemExit(f"corpus too uniform: only {len(tokens)} usable tokens")
    queries = []
    for i in range(count):
        if i % 3 == 2:
            queries.append(parse_query(f'"{tokens[i]}" AND "{tokens[i + 1]}"'))
        else:
            queries.append(parse_query(f'"{tokens[i]}"'))
    return queries


def fresh_system(
    lines: list[bytes],
    seed: int,
    cache_pages: int,
    kernel: str | None = None,
) -> MithriLogSystem:
    system = MithriLogSystem(
        seed=seed, cache_pages=cache_pages, scan_kernel=kernel
    )
    system.ingest(lines)
    return system


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def run(args: argparse.Namespace) -> int:
    lines = list(generator_for(args.dataset, seed=args.seed).iter_lines(args.lines))
    queries = build_queries(lines, args.queries)
    print(
        f"corpus: {args.dataset} x {len(lines):,} lines, "
        f"{len(queries)} queries, {args.workers} workers"
    )

    # -- serial baseline: one scan per query, no cache -------------------
    serial = fresh_system(lines, args.seed, cache_pages=0)
    serial_outcomes, serial_s = timed(
        lambda: [serial.scan_all(q) for q in queries]
    )

    # -- batched: all queries in one pass, no cache ----------------------
    batched_system = fresh_system(lines, args.seed, cache_pages=0)
    batched, batched_s = timed(lambda: batched_system.scan_all(*queries))

    # -- batched-ref: same pass pinned to the reference kernel -----------
    ref_system = fresh_system(
        lines, args.seed, cache_pages=0, kernel="reference"
    )
    batched_ref, batched_ref_s = timed(lambda: ref_system.scan_all(*queries))

    # -- parallel: the batched pass over a worker pool -------------------
    parallel_system = fresh_system(lines, args.seed, cache_pages=0)
    parallel_system.scan_all(*queries, workers=args.workers)  # warm the pool
    parallel, parallel_s = timed(
        lambda: parallel_system.scan_all(*queries, workers=args.workers)
    )
    parallel_system.close()

    # -- cached: batched re-scan against a warm page cache ---------------
    cached_system = fresh_system(lines, args.seed, cache_pages=args.lines)
    cached_system.scan_all(*queries)  # populates the cache
    cached, cached_s = timed(lambda: cached_system.scan_all(*queries))

    # -- equivalence gates (CI fails on any divergence) -------------------
    failures = []
    serial_counts = [len(o.matched_lines) for o in serial_outcomes]
    if batched.per_query_counts != serial_counts:
        failures.append(
            f"batched per-query counts {batched.per_query_counts} != "
            f"serial counts {serial_counts}"
        )
    for name, outcome in (
        ("batched-ref", batched_ref),
        ("parallel", parallel),
        ("cached", cached),
    ):
        if outcome.matched_lines != batched.matched_lines:
            failures.append(f"{name} scan data diverges from batched scan")
        if outcome.per_query_counts != batched.per_query_counts:
            failures.append(f"{name} per-query counts diverge from batched")
        for stat in STAT_FIELDS:
            a, b = getattr(outcome.stats, stat), getattr(batched.stats, stat)
            if a != b:
                failures.append(f"{name} stats.{stat}: {a} != {b}")
    if failures:
        for failure in failures:
            print(f"DIVERGENCE: {failure}", file=sys.stderr)
        return 1

    records = [
        {"bench": "hotpath", "config": f"serial-{args.queries}q",
         "wall_s": round(serial_s, 4), "speedup": 1.0},
        {"bench": "hotpath", "config": f"batched-{args.queries}q",
         "wall_s": round(batched_s, 4),
         "speedup": round(serial_s / batched_s, 2)},
        {"bench": "hotpath", "config": f"batched-{args.queries}q-ref",
         "wall_s": round(batched_ref_s, 4),
         "speedup": round(serial_s / batched_ref_s, 2)},
        {"bench": "hotpath",
         "config": f"parallel-{args.queries}q-w{args.workers}",
         "wall_s": round(parallel_s, 4),
         "speedup": round(serial_s / parallel_s, 2)},
        {"bench": "hotpath", "config": f"cached-{args.queries}q",
         "wall_s": round(cached_s, 4),
         "speedup": round(serial_s / cached_s, 2)},
    ]
    for record in records:
        print(f"  {record['config']:<24} {record['wall_s']:>8.3f}s "
              f"{record['speedup']:>6.2f}x")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    trajectory = json.loads(out.read_text()) if out.exists() else []
    trajectory.extend(records)
    out.write_text(json.dumps(trajectory, indent=1) + "\n")
    print(f"wrote {len(records)} records to {out}")

    if args.explain_out:
        # EXPLAIN ANALYZE against the warm-cache system: the report's
        # canonical plan/attribution content is cache- and worker-
        # invariant, and CI re-validates the artifact with repro.obs.check
        report = cached_system.explain(queries[0], analyze=True)
        report.write(args.explain_out)
        print(f"wrote explain report to {args.explain_out}")
    if args.profile_out:
        from repro.obs.expose import bootstrap_families, write_snapshot

        bootstrap_families()
        write_snapshot(args.profile_out)
        print(f"wrote metrics snapshot to {args.profile_out}")

    batched_speedup = serial_s / batched_s
    if args.min_speedup and batched_speedup < args.min_speedup:
        print(
            f"FAIL: batched speedup {batched_speedup:.2f}x below the "
            f"{args.min_speedup:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    vector_speedup = batched_ref_s / batched_s
    if args.min_vector_speedup and vector_speedup < args.min_vector_speedup:
        print(
            f"FAIL: vectorized kernel only {vector_speedup:.2f}x the "
            f"reference kernel on the batched pass, below the "
            f"{args.min_vector_speedup:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    print(
        f"vectorized kernel is {vector_speedup:.2f}x the reference "
        f"kernel on the batched pass"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="Liberty2")
    parser.add_argument("--lines", type=int, default=20000)
    parser.add_argument("--queries", type=int, default=16)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_hotpath.json")
    parser.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="fail when the batched scan is not this much faster than "
        "per-query serial scans (0 disables the gate)",
    )
    parser.add_argument(
        "--min-vector-speedup", type=float, default=1.2,
        help="fail when the vectorized kernel is not this much faster "
        "than the reference kernel on the batched pass, measured in the "
        "same run (0 disables the gate; the default leaves headroom for "
        "host noise — typical wins are 6.0-7.1x at CI's --lines 8000, "
        "and CI gates at 4.5)",
    )
    parser.add_argument(
        "--explain-out",
        help="write an EXPLAIN ANALYZE report of the first query here",
    )
    parser.add_argument(
        "--profile-out",
        help="write a JSON metrics snapshot (profile counters included) here",
    )
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
