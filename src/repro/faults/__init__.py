"""Deterministic fault injection for the simulated MithriLog stack.

The paper's prototype runs on real flash (BlueDBM), where page read
errors, bit flips, bad blocks, torn writes and device loss are facts of
life. This package injects those faults into the simulated stack —
*deterministically and seedably*, so every failure a test provokes is
reproducible — and provides the policies the stack uses to survive them.

Layout:

- :mod:`repro.faults.schedules` — when a fault fires (probability- and
  schedule-based decisions, all seeded);
- :mod:`repro.faults.injectors` — what the fault does at each hook point
  (flash page reads, WAL appends, cluster shards, FTL blocks);
- :mod:`repro.faults.policies` — how the stack responds (a bounded
  read-retry budget; retries are counted, not timed);
- :mod:`repro.faults.reporting` — what happened (fault log, per-kind
  counters).

Hook points: ``FlashArray.read_page``/``read_pages`` consult an optional
:class:`PageFaultInjector`; ``WriteAheadLog.append`` consults an optional
:class:`WalFaultInjector`; ``MithriLogCluster.query`` consults an optional
:class:`ShardFaultInjector`; ``FlashTranslationLayer.retire_block``
models a block going bad. With no injector attached every hook is a
single ``is None`` check — zero overhead on the hot path.
"""

from repro.faults.injectors import (
    FaultKind,
    PageFaultInjector,
    ServiceFaultInjector,
    ShardFaultInjector,
    WalFaultInjector,
    inject_page_faults,
)
from repro.faults.policies import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.faults.reporting import FaultEvent, FaultLog
from repro.faults.schedules import (
    AddressSchedule,
    AlwaysSchedule,
    AtOperationsSchedule,
    BernoulliSchedule,
    EveryNthSchedule,
    FaultSchedule,
    NeverSchedule,
)

__all__ = [
    "AddressSchedule",
    "AlwaysSchedule",
    "AtOperationsSchedule",
    "BernoulliSchedule",
    "DEFAULT_RETRY_POLICY",
    "EveryNthSchedule",
    "FaultEvent",
    "FaultKind",
    "FaultLog",
    "FaultSchedule",
    "NeverSchedule",
    "PageFaultInjector",
    "RetryPolicy",
    "ServiceFaultInjector",
    "ShardFaultInjector",
    "WalFaultInjector",
    "inject_page_faults",
]
