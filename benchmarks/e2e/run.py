"""bench_e2e: one host-wall + simulated-clock benchmark for the whole path.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--no-trace]
                                 [--out FILE] [--scale X]

runs the workloads of ``workloads.py`` one at a time, each in a fresh
child interpreter (so ``peak_rss_mb`` and the module-level memos are
per workload), prints every metric by name with its unit, checks every
answer against the grep oracle and exits non-zero on any disagreement.
End-to-end metrics come from an **untraced** run; a second, **traced**
run of the same workload and seed yields the per-layer metrics.

The driver's form (see BENCHMARK.json) is

    run.py --workload NAME --seed N --seconds S --trace 0|1

which additionally prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--seconds`` sizes the fixed work of the timed region (op and line
counts scale with it); the work itself is a function of the seed and
the size alone, which is what keeps the simulated metrics and
``sim_digest`` bit-identical between runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench_e2e: {ROOT / 'src' / 'repro'} not found; nothing to measure")
sys.path.insert(0, str(ROOT / "src"))

from layers import Tracer  # noqa: E402
from metrics import (  # noqa: E402
    END_TO_END,
    FAILED_OPS_SHARE,
    PER_LAYER,
    end_to_end,
    per_layer,
    ratio,
    service_totals,
    sim_digest,
)
from oracle import IngestOp, OpLog, verify  # noqa: E402
from pilot import PILOT_REFERENCE_S, burst, speed_factor  # noqa: E402
from workloads import NOMINAL_SECONDS, OUT_DIR, WORKLOADS  # noqa: E402

SCHEMA = "mithrilog_bench_e2e/1"
SCAN_ENV = ("REPRO_SCAN_KERNEL", "REPRO_SCAN_BACKEND")
#: One invocation with --workload must end within the driver's 180 s.
INVOCATION_BUDGET_S = 170
#: Set-ups per run; the reported ``setup_s`` is their median.
SETUP_REPEATS = 3


# ---------------------------------------------------------------------------
# The child: one workload, one run
# ---------------------------------------------------------------------------


def header(seed: int, scale: float) -> dict:
    """What a reader needs to tell two records apart."""
    from repro.core.backend import numpy_or_none, resolve_backend, resolve_kernel

    numpy = numpy_or_none()

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "schema": SCHEMA,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy is not None else None,
        "nproc": os.cpu_count(),
        "scan_kernel": resolve_kernel(None),
        "scan_backend": resolve_backend(None),
        "workers": 1,
        "metrics_registry": "on",
        "seed": seed,
        "scale": scale,
    }


def measure(workload, seed: int, scale: float, traced: bool,
            untraced_wall_s: float) -> dict:
    """Set up (several times), run the timed region once, check, report.

    Every wall-clock figure is reported at reference machine speed: raw
    host time divided by a machine-speed factor sampled right around it
    (see pilot.py).
    """
    setup_s, setup_load_mbps = [], []
    for _ in range(SETUP_REPEATS):
        prepared = None
        gc.collect()  # drop the previous repetition before timing the next
        pilots = burst()
        started = time.perf_counter()
        prepared = workload.setup(seed, scale)
        raw_s = time.perf_counter() - started
        setup_speed = speed_factor(pilots + burst())
        setup_s.append(raw_s / setup_speed)
        setup_load_mbps.append(setup_speed * ratio(
            sum(r.original_bytes for r in prepared.load_reports) / 1e6,
            prepared.timing["load_s"],
        ))
    timing = {phase: s / setup_speed for phase, s in prepared.timing.items()}

    log = OpLog(want_lines=set(prepared.want_lines))
    evictions_before = sum(s.page_cache.evictions for s in prepared.systems)
    tracer = None
    if traced:
        tracer = log.tracer = Tracer()
        tracer.install()
    pilots = burst()
    started = time.perf_counter()
    try:
        prepared.run(log)
    finally:
        raw_wall_s = time.perf_counter() - started - sum(log.pilot_s)
        if tracer is not None:
            tracer.uninstall()
    speed = speed_factor(pilots + log.pilot_s + burst())
    wall_s = raw_wall_s / speed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_started = time.perf_counter()
    verify(log, prepared.expected, prepared.corpus, prepared.baseline_counts)
    if prepared.final_check is not None:
        after = OpLog(want_lines=set(prepared.want_lines))
        prepared.final_check(after)
        verify(after, prepared.expected, prepared.corpus)
        log.checks += after.attempted
        log.failures += [(None, what, detail) for _, what, detail in after.failures]
    oracle_s = timing["oracle_s"] + (time.perf_counter() - check_started) / speed

    values, samples = end_to_end(
        log, prepared.load_reports, setup_s, setup_load_mbps, wall_s, speed,
        peak_rss_mb,
    )
    metrics = {
        m.name: {"value": values[m.name], "unit": m.unit, "clock": m.clock}
        for m in END_TO_END + (FAILED_OPS_SHARE,)
    }
    record = {
        **header(seed, scale),
        "workload": workload.name,
        "traced": traced,
        "corpora": [vars(spec) for spec in prepared.corpora],
        "op_counts": prepared.op_counts,
        "setup_phases_s": timing,
        "machine_speed": {
            "factor": speed,
            "pilot_reference_s": PILOT_REFERENCE_S,
            "pilot_samples": len(log.pilot_s) + 10,
            "raw_wall_s": raw_wall_s,
        },
        "samples": samples,
        "sim_digest": sim_digest(log),
        "attempted": log.attempted,
        "failed": log.failed,
        "failures": [what for _, what, _ in log.failures[:10]],
    }
    for _, what, detail in log.failures[:10]:
        print(f"FAILED {workload.name}: {what}\n{detail}", file=sys.stderr)

    if tracer is not None:
        last = prepared.systems[-1]
        context = SimpleNamespace(
            timing=timing,
            wall_s=wall_s,
            oracle_s=oracle_s,
            trace_overhead_share=ratio(wall_s - untraced_wall_s, untraced_wall_s),
            registry_overhead_share=(
                prepared.registry_overhead() if prepared.registry_overhead else 0.0
            ),
            cache_evictions=sum(s.page_cache.evictions for s in prepared.systems)
            - evictions_before,
            index_memory_bytes=last.index.memory_footprint_bytes(),
            stored_user_bytes=last.original_bytes,
            timed_user_bytes=sum(
                r.original_bytes for op in log.ops if isinstance(op, IngestOp)
                for r in op.reports
            ),
            wal_bytes=prepared.counters.get("wal_bytes", 0),
            stream_evaluations=prepared.counters.get("stream_evaluations", 0),
            **service_totals(log),
        )
        summary = tracer.summary(speed)
        layer_values = per_layer(summary, context)
        for name, unit, _better, clock, _formula in PER_LAYER:
            metrics[name] = {"value": layer_values[name], "unit": unit, "clock": clock}
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
        span_file.write_text(json.dumps(tracer.to_payload(started)))
        record["span_file"] = str(span_file.relative_to(ROOT))
        record["spans"] = len(tracer.spans)
        record["min_self_s"] = summary.min_self_s()
        record["unresolved_boundaries"] = sorted(tracer.unresolved)
    record["metrics"] = metrics
    return record


# ---------------------------------------------------------------------------
# The parent: fresh interpreters, one at a time
# ---------------------------------------------------------------------------


def run_child(workload: str, seed: int, scale: float, traced: bool,
              timeout_s: float, untraced_wall_s: float = 0.0) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
        "--seed", str(seed), "--scale", repr(scale), "--trace", str(int(traced)),
        "--untraced-wall", repr(untraced_wall_s),
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=timeout_s
    )
    if done.returncode != 0:
        sys.exit(f"bench_e2e: {workload} child exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def listed_metrics(record: dict) -> list[str]:
    """The metrics BENCHMARK.json lists for this kind of run."""
    if record["traced"]:
        return [row[0] for row in PER_LAYER]
    return [m.name for m in END_TO_END]


def report(record: dict) -> None:
    kind = "traced" if record["traced"] else "untraced"
    print(f"\n== {record['workload']} ({kind}, seed {record['seed']}, "
          f"scale {record['scale']:g}) ==")
    print(f"   sim_digest {record['sim_digest']}  "
          f"latency ops n={record['samples']['latency_ops']}  "
          f"failed {record['failed']}/{record['attempted']}")
    if record.get("unresolved_boundaries"):
        print(f"   unresolved_boundaries: {record['unresolved_boundaries']}")
    names = listed_metrics(record)
    if not record["traced"]:
        names.append(FAILED_OPS_SHARE.name)
    for name in names:
        metric = record["metrics"][name]
        value = "null" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"   {name:<38} {value:>14} {metric['unit']:<6} [{metric['clock']}]")


def contract_line(records: list[dict]) -> str:
    """The driver's result object (last line of stdout)."""
    record = records[-1]
    return json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {k: record["metrics"][name][k] for k in ("value", "unit")}
            for name in listed_metrics(record)
        },
    })


def main(argv=None) -> int:
    names = [w.name for w in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all four")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="target length of each timed region (sizes the work)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="extra multiplier on line and op counts")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 = end-to-end run only, 1 = also the "
                             "traced run; prints the result object as the last line")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced run")
    parser.add_argument("--out", type=Path, help="append the run records to FILE")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--untraced-wall", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")

    if args.child:
        workload = next(w for w in WORKLOADS if w.name == args.workload)
        record = measure(workload, args.seed, args.scale, bool(args.trace),
                         args.untraced_wall)
        print(json.dumps(record))
        return 0

    forced = [name for name in SCAN_ENV if name in os.environ]
    if forced:
        parser.error(f"{' and '.join(forced)} must be unset: the benchmark "
                     "measures the kernel the system picks by itself")
    scale = args.scale * args.seconds / NOMINAL_SECONDS
    traced = args.trace == 1 if args.trace is not None else not args.no_trace
    records = []
    for name in [args.workload] if args.workload else names:
        deadline = time.monotonic() + INVOCATION_BUDGET_S
        plain = run_child(name, args.seed, scale, False, INVOCATION_BUDGET_S)
        report(plain)
        records.append(plain)
        if traced:
            wall_s = plain["metrics"]["wall_s"]["value"]
            records.append(run_child(
                name, args.seed, scale, True, deadline - time.monotonic(), wall_s
            ))
            report(records[-1])
    if args.out is not None:
        runs = json.loads(args.out.read_text())["runs"] if args.out.exists() else []
        args.out.write_text(json.dumps({"schema": SCHEMA, "runs": runs + records},
                                       indent=1))
    if args.trace is not None and args.workload:
        print(contract_line(records))
    return 1 if any(r["failed"] for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
