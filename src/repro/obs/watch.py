"""Perf-regression watchdog: ``python -m repro watch-perf <files...>``.

Benchmark runs append one record per configuration to trajectory files
(``BENCH_hotpath.json`` and friends: ``{"bench", "config", "wall_s",
"speedup"}``), so a file accumulates a per-config *series* over time.
This module walks those series and fails — exit code 1 — when the most
recent value of a watched metric has dropped too far below the history.

Semantics, chosen to be boring and explainable in a CI log:

- Records group by ``(bench, config)`` in file order (multiple files
  concatenate, so CI can join the committed baseline trajectory with the
  artifact a fresh run just produced).
- The **current** value is the last record of a series; the **baseline**
  is the median of everything before it. Median, not mean: one historic
  outlier run must not move the bar.
- A series regresses when ``(baseline - current) / baseline`` is at
  least ``tolerance`` (default 0.2 — a 20% speedup drop). Higher is
  always fine; the watchdog is one-sided.
- Series shorter than ``min_runs`` (default 2) are skipped — with no
  history there is nothing to regress against.

The watched metric defaults to ``speedup`` (bigger is better). Wall
seconds are *not* watched by default: they measure the CI machine, not
the code, and the committed trajectories come from different hardware.

Exit codes follow the house convention: 0 pass, 1 regression(s),
2 misuse (no files, unreadable file, bad JSON shape).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median
from typing import Any, Optional, Sequence

from repro.obs.artifacts import read_json
from repro.obs.log import get_logger

__all__ = [
    "Regression",
    "WatchError",
    "evaluate_trajectory",
    "load_trajectories",
    "main",
]

#: Default relative drop (vs the baseline median) that fails the check.
DEFAULT_TOLERANCE = 0.2

#: Series need at least this many runs before the watchdog judges them.
DEFAULT_MIN_RUNS = 2

LOG = get_logger("repro.obs.watch")


class WatchError(ValueError):
    """Unusable watchdog input (unreadable file, wrong JSON shape)."""


@dataclass(frozen=True)
class Regression:
    """One series whose current value fell below the tolerated floor."""

    bench: str
    config: str
    metric: str
    baseline: float
    current: float

    @property
    def drop(self) -> float:
        """Relative drop of the current value below the baseline."""
        if self.baseline == 0:
            return 0.0
        return (self.baseline - self.current) / self.baseline

    def __str__(self) -> str:
        return (
            f"{self.bench}/{self.config}: {self.metric} "
            f"{self.current:g} is {100 * self.drop:.1f}% below the "
            f"baseline median {self.baseline:g}"
        )


def load_trajectories(paths: Sequence[Path]) -> list[dict[str, Any]]:
    """Concatenate trajectory files in argument order.

    Raises :class:`WatchError` when a file is missing, not JSON, or not
    a list of record objects — a watchdog that silently skips bad input
    would pass exactly when it should be failing.
    """
    records: list[dict[str, Any]] = []
    for path in paths:
        payload = read_json(path, WatchError, "trajectory")
        if not isinstance(payload, list) or not all(
            isinstance(r, dict) for r in payload
        ):
            raise WatchError(f"{path}: trajectory must be a list of records")
        records.extend(payload)
    return records


def evaluate_trajectory(
    records: Sequence[dict[str, Any]],
    metric: str = "speedup",
    tolerance: float = DEFAULT_TOLERANCE,
    min_runs: int = DEFAULT_MIN_RUNS,
) -> list[Regression]:
    """Judge every ``(bench, config)`` series; returns the regressions.

    Records without the metric (or without a config) are ignored —
    trajectory files may mix benches with different record shapes.
    """
    if tolerance <= 0:
        raise WatchError(f"tolerance must be positive, got {tolerance}")
    series: dict[tuple[str, str], list[float]] = {}
    for record in records:
        value = record.get(metric)
        config = record.get("config")
        if value is None or config is None:
            continue
        key = (str(record.get("bench", "")), str(config))
        series.setdefault(key, []).append(float(value))
    regressions: list[Regression] = []
    for (bench, config), values in series.items():
        if len(values) < max(2, min_runs):
            LOG.debug(
                "skipping short series", bench=bench, config=config,
                runs=len(values),
            )
            continue
        baseline = median(values[:-1])
        current = values[-1]
        if baseline <= 0:
            continue
        if (baseline - current) / baseline >= tolerance:
            regressions.append(
                Regression(
                    bench=bench, config=config, metric=metric,
                    baseline=baseline, current=current,
                )
            )
    return regressions


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; see the module docstring for exit codes."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro watch-perf",
        description="Fail when a benchmark trajectory regresses.",
    )
    parser.add_argument(
        "files", nargs="+", help="trajectory JSON files, concatenated in order"
    )
    parser.add_argument(
        "--metric", default="speedup",
        help="record field to watch (bigger is better; default: speedup)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="relative drop vs the baseline median that fails "
        f"(default: {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--min-runs", type=int, default=DEFAULT_MIN_RUNS,
        help="minimum series length before a config is judged "
        f"(default: {DEFAULT_MIN_RUNS})",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the verdict as JSON on stdout",
    )
    args = parser.parse_args(argv)
    try:
        records = load_trajectories([Path(p) for p in args.files])
        regressions = evaluate_trajectory(
            records,
            metric=args.metric,
            tolerance=args.tolerance,
            min_runs=args.min_runs,
        )
    except WatchError as exc:
        LOG.error(str(exc))
        return 2
    if args.as_json:
        print(
            json.dumps(
                {
                    "metric": args.metric,
                    "tolerance": args.tolerance,
                    "records": len(records),
                    "regressions": [
                        {**asdict(r), "drop": r.drop} for r in regressions
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
    for regression in regressions:
        LOG.error(str(regression))
    if regressions:
        return 1
    if not args.as_json:
        LOG.info(
            f"no regressions in {len(records)} records "
            f"(metric={args.metric}, tolerance={args.tolerance})"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
