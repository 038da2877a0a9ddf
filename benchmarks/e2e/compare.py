"""Compare two sets of bench_e2e runs: ``compare.py A.json B.json``.

A is the base (the parent commit), B the candidate; both are files
written by ``run.py --out``. For every (metric, workload) pair the
table shows both medians, the ratio B/A with its base, and the bound
from ``BENCHMARK.json``.

- Wall-clock metrics compare medians of the untraced runs. A row is
  ``REGRESSION`` when B's median is worse than A's by more than the
  bound. When A's own run-to-run spread (interquartile range over
  median) exceeds the bound the row is ``unresolved`` instead, unless
  every B run beats every A run.
- Simulated and exact metrics (``clock: sim|exact``) and ``sim_digest`` compare by
  equality, run by run, on every (workload, seed, scale) both files
  hold: this is the "simulated numbers did not move" check.
- ``failed_ops_share`` must be 0 on every B run.

Exit status: 1 if any row is a regression, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: str) -> list[dict]:
    return [r for r in json.loads(Path(path).read_text())["runs"] if not r["traced"]]


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def wall_verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (statistics.median(b) - statistics.median(a)) / statistics.median(a)
    if spread(a) > bound:
        b_wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return "ok (every B run better)" if b_wins else "unresolved"
    return "REGRESSION" if worse_by > bound else "ok"


def exact_verdict(a_runs: list[dict], b_runs: list[dict], read) -> str:
    """Equality on every (seed, scale) the two sides share."""
    by_key = defaultdict(set)
    for side, runs in (("a", a_runs), ("b", b_runs)):
        for run in runs:
            by_key[run["seed"], run["scale"]].add((side, read(run)))
    shared = [v for v in by_key.values() if {s for s, _ in v} == {"a", "b"}]
    if not shared:
        return "no common seed"
    return "equal" if all(len({x for _, x in v}) == 1 for v in shared) else "DIFFERENT"


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> tuple[list[str], bool]:
    lines = [f"{'workload':<15} {'metric':<27} {'A median':>12} {'B median':>12} "
             f"{'B/A':>7} {'bound':>6} {'A spread':>8}  verdict"]
    regression = False
    for workload in [w["name"] for w in spec["workloads"]]:
        a_w = [r for r in a_runs if r["workload"] == workload]
        b_w = [r for r in b_runs if r["workload"] == workload]
        if not a_w or not b_w:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_w]
            b = [r["metrics"][name]["value"] for r in b_w]
            if a_w[0]["metrics"][name]["clock"] in ("sim", "exact"):
                verdict = exact_verdict(a_w, b_w, lambda r: r["metrics"][name]["value"])
            else:
                verdict = wall_verdict(a, b, metric["better"], metric["bound"])
            med_a, med_b = statistics.median(a), statistics.median(b)
            lines.append(
                f"{workload:<15} {name:<27} {med_a:>12.6g} {med_b:>12.6g} "
                f"{med_b / med_a:>7.3f} {metric['bound']:>6.2f} {spread(a):>8.3f}  "
                f"{verdict} (base A, n={len(a)}/{len(b)})"
            )
            regression |= verdict in ("REGRESSION", "DIFFERENT")
        digest = exact_verdict(a_w, b_w, lambda r: r["sim_digest"])
        failed = sum(r["failed"] for r in b_w)
        lines.append(f"{workload:<15} {'sim_digest':<27} {digest}")
        lines.append(f"{workload:<15} {'failed_ops_share':<27} "
                     f"{'ok' if failed == 0 else 'REGRESSION'} "
                     f"({failed} failed ops over {len(b_w)} B runs)")
        regression |= digest == "DIFFERENT" or failed > 0
    return lines, regression


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, regression = compare(load_runs(argv[0]), load_runs(argv[1]), spec)
    print("\n".join(lines))
    return 1 if regression else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
