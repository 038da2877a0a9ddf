"""Deterministic host-side profiling and trace-context propagation.

A *stage profile* is one plain dict, ``{stage: {"calls", "units",
"wall_s"}}``, in one form from the scan kernel's loop to
``QueryStats.host_profile``:

- the partition kernel accumulates into it with :func:`add_stage` (one
  ``perf_counter`` pair per accounted call) and returns it in its
  :class:`~repro.exec.executor.KernelResult`, which pickles across the
  process-pool boundary;
- the parent sums partitions' (or shards') profiles with
  :func:`merge_profiles` and folds the sum into *its* registry with
  :func:`merge_into_registry`, so work done in pool workers, whose
  registries die with the pool, is still scraped.

Determinism contract: the *counts* (``calls``, ``units``) are pure
functions of the store and query — identical at any worker count and on
any machine — while ``wall_s`` is measurement and varies; the EXPLAIN
golden tests compare only the counts.

A :class:`TraceContext` names one logical operation across process and
shard boundaries: the system mints one per query (``q<N>``), the cluster
tags it with the shard index, and the scan executor's partitions extend
it with a partition index. Span args carry the context's tags, so a
Perfetto view of a sharded, parallel scan still groups by query.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional

from repro.obs.metrics import handle

__all__ = [
    "TraceContext",
    "add_stage",
    "merge_into_registry",
    "merge_profiles",
]


@dataclass(frozen=True)
class TraceContext:
    """Identity of one logical operation, propagated across boundaries.

    ``trace_id`` names the operation (``q7`` for the system's seventh
    query); ``shard`` and ``partition`` are filled in as the operation
    crosses the cluster scatter and the scan executor's fan-out. The
    context is frozen — derivation returns a new child — and its tags
    ride along as span args, never as span names, so span names stay
    stable for golden tests.
    """

    trace_id: str
    shard: Optional[int] = None
    partition: Optional[int] = None

    def child(
        self,
        shard: Optional[int] = None,
        partition: Optional[int] = None,
    ) -> "TraceContext":
        """A derived context with shard/partition filled in."""
        return replace(
            self,
            shard=shard if shard is not None else self.shard,
            partition=partition if partition is not None else self.partition,
        )

    def tags(self) -> dict[str, object]:
        """Span-args rendering; omits unset coordinates."""
        tags: dict[str, object] = {"trace_id": self.trace_id}
        if self.shard is not None:
            tags["shard"] = self.shard
        if self.partition is not None:
            tags["partition"] = self.partition
        return tags


def add_stage(
    profile: dict, stage: str, calls: int, units: int, wall_s: float
) -> None:
    """Accumulate one accounted call into ``profile``; a stage appears
    once it is first added."""
    entry = profile.get(stage)
    if entry is None:
        profile[stage] = {"calls": calls, "units": units, "wall_s": wall_s}
    else:
        entry["calls"] += calls
        entry["units"] += units
        entry["wall_s"] += wall_s


def merge_profiles(profiles: Iterable[Mapping[str, Mapping]]) -> dict:
    """Sum stage profiles key by key (across partitions, shards or
    queries); the stages come out sorted."""
    merged: dict[str, dict] = {}
    for profile in profiles:
        for stage, entry in profile.items():
            into = merged.setdefault(stage, {})
            for key, value in entry.items():
                into[key] = into.get(key, 0) + value
    return dict(sorted(merged.items()))


def merge_into_registry(profile: Mapping[str, Mapping]) -> None:
    """Fold a profile into the active registry's ``mithrilog_profile_*``
    family.

    Called by whoever *gathered* the profile — the scan executor after
    collecting partition results, the system after a ``limit=`` read — so
    work done in pool workers (whose registries die with the process)
    still lands in the parent's exposition.
    """
    if not profile:
        return
    calls = handle("mithrilog_profile_calls_total")
    units = handle("mithrilog_profile_units_total")
    wall = handle("mithrilog_profile_wall_seconds_total")
    for stage, entry in profile.items():
        if entry["calls"]:
            calls.inc(entry["calls"], stage=stage)
        if entry["units"]:
            units.inc(entry["units"], stage=stage)
        if entry["wall_s"] > 0:
            wall.inc(entry["wall_s"], stage=stage)
