"""What a fault does at each hook point.

Injectors sit at the stack's natural failure surfaces:

- :class:`PageFaultInjector` — consulted by ``FlashArray`` on every page
  read; models transient read errors (retryable), bit flips caught by the
  page checksum (retryable: the flip happened on the read path), and
  persistently bad page addresses (not retryable — the cells are gone);
- :class:`WalFaultInjector` — consulted by ``WriteAheadLog.append``;
  models a crash tearing the record mid-write;
- :class:`ShardFaultInjector` — consulted by ``MithriLogCluster.query``;
  models a whole device dropping out of the scatter-gather.

Each injector owns an operation counter, feeds it to its
:class:`~repro.faults.schedules.FaultSchedule`, and records every fired
fault in a :class:`~repro.faults.reporting.FaultLog`. Randomness (which
byte flips, where a record tears) comes from a private seeded generator.
"""

from __future__ import annotations

import enum
import random
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import BadBlockError, PageReadError, ShardUnavailableError
from repro.faults.reporting import FaultLog
from repro.faults.schedules import FaultSchedule, NeverSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.storage.page import Page


class FaultKind(enum.Enum):
    """The fault vocabulary, matching the paper's hardware failure modes."""

    READ_ERROR = "read_error"  #: transient page read failure
    BIT_FLIP = "bit_flip"  #: checksum mismatch on the read path
    BAD_BLOCK = "bad_block"  #: persistent, unrecoverable page loss
    TORN_WRITE = "torn_write"  #: WAL record cut short by a crash
    SHARD_DOWN = "shard_down"  #: whole device missing from the cluster
    COMPILE_REJECT = "compile_reject"  #: service refuses a query's program
    SLOW_PASS = "slow_pass"  #: an accelerator pass running degraded/slow


class PageFaultInjector:
    """Injects faults into flash page reads.

    ``read_errors`` and ``bit_flips`` are schedules keyed by the read
    operation counter (transient); ``bad_addresses`` is a set of page
    addresses that are permanently unreadable (persistent).
    """

    def __init__(
        self,
        read_errors: Optional[FaultSchedule] = None,
        bit_flips: Optional[FaultSchedule] = None,
        bad_addresses: Iterable[int] = (),
        seed: int = 0,
        log: Optional[FaultLog] = None,
    ) -> None:
        self.read_errors = read_errors if read_errors is not None else NeverSchedule()
        self.bit_flips = bit_flips if bit_flips is not None else NeverSchedule()
        self.bad_addresses = set(bad_addresses)
        self._rng = random.Random(seed)
        self.log = log if log is not None else FaultLog()
        self.reads = 0

    def on_read(self, address: int, page: "Page") -> "Page":
        """Called by the flash array with the stored page; may raise or
        return a corrupted copy (the stored page itself is untouched, so
        a re-read can succeed — that is what makes these faults
        transient)."""
        op = self.reads
        self.reads += 1
        if address in self.bad_addresses:
            self.log.record(FaultKind.BAD_BLOCK.value, op, address=address)
            raise BadBlockError(f"page {address} lies on a bad block")
        if self.read_errors.fires(op, address):
            self.log.record(FaultKind.READ_ERROR.value, op, address=address)
            raise PageReadError(f"transient read error on page {address}")
        if self.bit_flips.fires(op, address) and len(page):
            pos = self._rng.randrange(len(page))
            self.log.record(
                FaultKind.BIT_FLIP.value, op, address=address, detail=f"byte {pos}"
            )
            return page.corrupted(pos)
        return page


class WalFaultInjector:
    """Tears write-ahead-log appends, simulating a crash mid-write."""

    def __init__(
        self,
        torn_writes: Optional[FaultSchedule] = None,
        seed: int = 0,
        log: Optional[FaultLog] = None,
    ) -> None:
        self.torn_writes = torn_writes if torn_writes is not None else NeverSchedule()
        self._rng = random.Random(seed)
        self.log = log if log is not None else FaultLog()
        self.appends = 0

    def on_append(self, record: bytes) -> bytes:
        """Return the bytes that actually reach the file — possibly a
        prefix of the record, as a crash mid-``write`` would leave."""
        op = self.appends
        self.appends += 1
        if len(record) > 1 and self.torn_writes.fires(op):
            cut = self._rng.randrange(1, len(record))
            self.log.record(
                FaultKind.TORN_WRITE.value, op, detail=f"cut at {cut}/{len(record)}"
            )
            return record[:cut]
        return record


class ShardFaultInjector:
    """Drops whole shards out of cluster scatter-gather queries."""

    def __init__(
        self,
        shard_down: Optional[FaultSchedule] = None,
        log: Optional[FaultLog] = None,
    ) -> None:
        self.shard_down = shard_down if shard_down is not None else NeverSchedule()
        self.log = log if log is not None else FaultLog()
        self.queries = 0

    def on_query(self, shard_index: int) -> None:
        """Called once per shard per scatter; raises when the shard is down."""
        op = self.queries
        self.queries += 1
        if self.shard_down.fires(op, shard_index):
            self.log.record(FaultKind.SHARD_DOWN.value, op, address=shard_index)
            raise ShardUnavailableError(f"shard {shard_index} is unreachable")


class ServiceFaultInjector:
    """Injects faults into the multi-tenant query service layer.

    Two failure modes the service must turn into *explicit outcomes*
    rather than hangs or crashes:

    - ``compile_rejects`` — a request's program is refused at the front
      door (the hardware probe says it cannot place), keyed by the
      admission operation counter; the service answers ``REJECTED``
      with reason ``compile_fault``.
    - ``slow_passes`` — an accelerator pass runs ``slowdown`` times
      slower than modelled (a degraded shard, a busy device), keyed by
      the pass counter; queued requests behind it feel the latency and
      the deadline/shedding machinery reacts.
    """

    def __init__(
        self,
        compile_rejects: Optional[FaultSchedule] = None,
        slow_passes: Optional[FaultSchedule] = None,
        slowdown: float = 4.0,
        log: Optional[FaultLog] = None,
    ) -> None:
        if slowdown < 1.0:
            raise ValueError("slowdown must be at least 1.0")
        self.compile_rejects = (
            compile_rejects if compile_rejects is not None else NeverSchedule()
        )
        self.slow_passes = (
            slow_passes if slow_passes is not None else NeverSchedule()
        )
        self.slowdown = slowdown
        self.log = log if log is not None else FaultLog()
        self.admissions = 0
        self.passes = 0

    def on_admit(self, tenant: str) -> bool:
        """Called once per admitted-for-compile request; True = reject."""
        op = self.admissions
        self.admissions += 1
        if self.compile_rejects.fires(op):
            self.log.record(FaultKind.COMPILE_REJECT.value, op, detail=tenant)
            return True
        return False

    def on_pass(self, batch_size: int) -> float:
        """Called once per accelerator pass; returns a time multiplier."""
        op = self.passes
        self.passes += 1
        if self.slow_passes.fires(op):
            self.log.record(
                FaultKind.SLOW_PASS.value,
                op,
                detail=f"x{self.slowdown:g} over {batch_size} queries",
            )
            return self.slowdown
        return 1.0


def inject_page_faults(
    target,
    read_errors: Optional[FaultSchedule] = None,
    bit_flips: Optional[FaultSchedule] = None,
    bad_addresses: Iterable[int] = (),
    seed: int = 0,
    log: Optional[FaultLog] = None,
) -> FaultLog:
    """Attach page-read fault injectors to a system, cluster, or flash array.

    Accepts a ``MithriLogCluster`` (every shard's flash gets its own
    injector, seeded ``seed + shard``), a ``MithriLogSystem`` (its
    device's flash), a ``MithriLogDevice``, or a bare ``FlashArray``.
    All injectors share (and the call returns) one :class:`FaultLog`.
    """
    shared = log if log is not None else FaultLog()

    def _make(s: int) -> PageFaultInjector:
        return PageFaultInjector(
            read_errors=read_errors,
            bit_flips=bit_flips,
            bad_addresses=bad_addresses,
            seed=s,
            log=shared,
        )

    if hasattr(target, "shards"):
        for index, shard in enumerate(target.shards):
            shard.device.flash.fault_injector = _make(seed + index)
    elif hasattr(target, "device"):
        target.device.flash.fault_injector = _make(seed)
    elif hasattr(target, "flash"):
        target.flash.fault_injector = _make(seed)
    elif hasattr(target, "read_page"):
        target.fault_injector = _make(seed)
    else:
        raise TypeError(f"cannot attach page faults to {type(target).__name__}")
    return shared
