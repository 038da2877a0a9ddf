"""Deterministic host-side profiling and trace-context propagation.

Two gaps motivated this module (PR 3 surfaced both):

- **Worker invisibility.** ``ScanExecutor`` fans the scan hot path out
  over subprocess partitions, and everything a worker does — LZAH
  decodes, tokenization, filter evaluation — happened in a registry and
  tracer the parent process never sees. Partition kernels now build a
  :class:`PartitionProfile` (picklable, plain data) and return it with
  their results; the parent merges the records into *its* registry
  (:func:`merge_into_registry`) and lays partition spans onto the trace.
- **No per-stage host accounting.** Simulated stage times come from the
  pipeline arithmetic, but nothing recorded where *host wall-clock*
  actually went (the number ``benchmarks/bench_hotpath.py`` optimises).
  :class:`ProfileBuilder` accumulates per-stage call counts, work units
  and wall seconds with one ``perf_counter`` pair per accounted call.

Determinism contract: the *counts* (``calls``, ``units``) are pure
functions of the store and query — identical at any worker count and on
any machine — while ``wall_s`` is measurement and varies. Canonical
renderings (:func:`profile_counts`) therefore strip ``wall_s``; the
EXPLAIN golden tests compare only the counts.

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
    "SCAN_STAGES",
    "PartitionProfile",
    "ProfileBuilder",
    "StageProfile",
    "TraceContext",
    "merge_into_registry",
    "merge_profiles",
    "profile_counts",
    "profile_to_dict",
]

#: The host-side scan stages the kernels account for, in pipeline order.
SCAN_STAGES = ("decompress", "tokenize", "filter")


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


@dataclass(frozen=True)
class StageProfile:
    """One stage's accumulated accounting.

    ``calls`` and ``units`` (bytes decoded, lines tokenized/evaluated)
    are deterministic; ``wall_s`` is host measurement.
    """

    calls: int = 0
    units: int = 0
    wall_s: float = 0.0

    def merged(self, other: "StageProfile") -> "StageProfile":
        return StageProfile(
            calls=self.calls + other.calls,
            units=self.units + other.units,
            wall_s=self.wall_s + other.wall_s,
        )


@dataclass(frozen=True)
class PartitionProfile:
    """What one scan partition did — the record a worker returns.

    Plain frozen data so it pickles across the process-pool boundary;
    ``index`` is the partition's position in page order (assigned by the
    parent, which knows the partition layout).
    """

    index: int
    pages: int
    bytes_decompressed: int
    lines_seen: int
    lines_kept: int
    stages: tuple[tuple[str, StageProfile], ...] = ()

    def stage_dict(self) -> dict[str, StageProfile]:
        return dict(self.stages)


class ProfileBuilder:
    """Mutable per-stage accumulator for one scan (or one partition)."""

    def __init__(self) -> None:
        self._stages: dict[str, list[float]] = {}

    def add(
        self, stage: str, calls: int = 1, units: int = 0, wall_s: float = 0.0
    ) -> None:
        entry = self._stages.get(stage)
        if entry is None:
            self._stages[stage] = [calls, units, wall_s]
        else:
            entry[0] += calls
            entry[1] += units
            entry[2] += wall_s

    def build(self) -> dict[str, StageProfile]:
        return {
            stage: StageProfile(calls=int(c), units=int(u), wall_s=w)
            for stage, (c, u, w) in self._stages.items()
        }

    def build_items(self) -> tuple[tuple[str, StageProfile], ...]:
        """The profile as sorted items — the picklable, hashable form
        :class:`PartitionProfile` carries."""
        return tuple(sorted(self.build().items()))


# ---------------------------------------------------------------------------
# Merging and rendering
# ---------------------------------------------------------------------------


def merge_profiles(
    profiles: Iterable[Mapping[str, StageProfile]],
) -> dict[str, StageProfile]:
    """Sum stage profiles across partitions / shards / queries."""
    merged: dict[str, StageProfile] = {}
    for profile in profiles:
        for stage, entry in profile.items():
            existing = merged.get(stage)
            merged[stage] = entry if existing is None else existing.merged(entry)
    return merged


def profile_to_dict(
    profile: Mapping[str, StageProfile], wall: bool = True
) -> dict[str, dict[str, float]]:
    """JSON-friendly rendering; ``wall=False`` keeps only the
    deterministic counts (the canonical/golden form)."""
    out: dict[str, dict[str, float]] = {}
    for stage in sorted(profile):
        entry = profile[stage]
        rendered: dict[str, float] = {
            "calls": entry.calls, "units": entry.units
        }
        if wall:
            rendered["wall_s"] = entry.wall_s
        out[stage] = rendered
    return out


def profile_counts(
    profile: Mapping[str, StageProfile],
) -> dict[str, dict[str, float]]:
    """The deterministic subset of a profile (no wall seconds)."""
    return profile_to_dict(profile, wall=False)


def merge_into_registry(profile: Mapping[str, StageProfile]) -> None:
    """Fold a profile into the active registry's ``mithrilog_profile_*``
    family.

    Called by whoever *gathered* the profile — the scan executor after
    collecting partition results, the system after a serial scan — so
    work done in pool workers (whose registries die with the process)
    still lands in the parent's exposition.
    """
    if not profile:
        return
    calls = handle("mithrilog_profile_calls_total")
    units = handle("mithrilog_profile_units_total")
    wall = handle("mithrilog_profile_wall_seconds_total")
    for stage, entry in profile.items():
        if entry.calls:
            calls.inc(entry.calls, stage=stage)
        if entry.units:
            units.inc(entry.units, stage=stage)
        if entry.wall_s > 0:
            wall.inc(entry.wall_s, stage=stage)
