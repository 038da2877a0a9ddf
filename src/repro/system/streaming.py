"""Streaming ingestion.

Logs arrive continuously ("typical use pattern of logs involves firstly
storing everything to the storage and then running queries", Section 1) —
so the store must accept lines as they arrive, not only in batches.
:class:`StreamingIngestor` wraps a :class:`repro.system.MithriLogSystem`
with an arrival buffer: lines accumulate until a batch is worth
compressing into pages, snapshots fire on a time cadence, and queries can
optionally cover the not-yet-persisted tail — through the same scan
kernel as the stored pages — so results are always complete.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.query import Query
from repro.core.tokenizer import check_line, check_lines
from repro.errors import IngestError
from repro.exec.executor import _partition_kernel
from repro.obs.metrics import handle
from repro.system.mithrilog import MithriLogSystem, QueryOutcome

#: A flush listener: ``(lines_flushed, now_s)`` after each persist.
FlushListener = Callable[[int, float], None]


class StreamingIngestor:
    """Accepts log lines incrementally and persists them in batches.

    ``flush_listeners`` is the hook the standing-query registry
    (:meth:`repro.stream.standing.StandingQueryRegistry.attach`) rides:
    every listener is called as ``listener(lines_flushed, now_s)``
    right after a non-empty flush persists its batch, which is what
    makes stream evaluation incremental — new pages only, no polling.
    """

    def __init__(
        self,
        system: MithriLogSystem,
        batch_lines: int = 512,
        snapshot_every_s: Optional[float] = None,
        max_pending_lines: Optional[int] = None,
        overflow: str = "raise",
    ) -> None:
        if batch_lines <= 0:
            raise IngestError("batch_lines must be positive")
        if snapshot_every_s is not None and snapshot_every_s <= 0:
            raise IngestError("snapshot_every_s must be positive")
        if max_pending_lines is not None and max_pending_lines <= 0:
            raise IngestError("max_pending_lines must be positive")
        if overflow not in ("raise", "shed"):
            raise IngestError(
                f"overflow must be 'raise' or 'shed', got {overflow!r}"
            )
        self.system = system
        self.batch_lines = batch_lines
        self.snapshot_every_s = snapshot_every_s
        self.max_pending_lines = max_pending_lines
        self.overflow = overflow
        self._pending: list[bytes] = []
        self._pending_stamps: list[Optional[float]] = []
        self._last_snapshot_at: Optional[float] = None
        self.lines_ingested = 0
        self.lines_shed = 0
        self.flush_listeners: list[FlushListener] = []
        self._m_pending = handle("mithrilog_ingest_pending_lines")
        self._m_overflow_shed = handle("mithrilog_ingest_overflow_shed_total")
        self._m_lines_filtered = handle("mithrilog_pipeline_lines_filtered_total")
        self._m_lines_kept = handle("mithrilog_pipeline_lines_kept_total")

    # -- arrival ---------------------------------------------------------

    @property
    def pending_lines(self) -> int:
        return len(self._pending)

    def append(self, line: bytes, timestamp: Optional[float] = None) -> None:
        """Accept one line; persists automatically when the batch fills.

        With ``max_pending_lines`` set, a full arrival buffer applies the
        ``overflow`` policy *before* accepting the line: ``"raise"``
        surfaces the backpressure to the producer as an
        :class:`~repro.errors.IngestError` (flush, then retry);
        ``"shed"`` drops the newest line and counts it in
        :attr:`lines_shed` — the bounded-buffer behaviour a lossy
        collector (syslog over UDP) exhibits. A cap below ``batch_lines``
        is the configuration where it binds, since the batch auto-flush
        otherwise empties the buffer first. A line holding ``\\n`` or
        ``\\r`` is refused with :class:`~repro.errors.IngestError`.
        """
        check_line(line)
        self._accept(line, timestamp)

    def _accept(self, line: bytes, timestamp: Optional[float]) -> None:
        """Buffer one checked line under the overflow policy."""
        if (
            self.max_pending_lines is not None
            and len(self._pending) >= self.max_pending_lines
        ):
            if self.overflow == "shed":
                self.lines_shed += 1
                self._m_overflow_shed.inc()
                return
            raise IngestError(
                f"pending buffer full ({len(self._pending)} lines >= "
                f"max_pending_lines={self.max_pending_lines}): flush() "
                "before appending, raise the cap, or use overflow='shed'"
            )
        self._pending.append(line)
        self._pending_stamps.append(timestamp)
        self._m_pending.set(len(self._pending))
        if len(self._pending) >= self.batch_lines:
            self.flush()

    def extend(
        self,
        lines: Sequence[bytes],
        timestamps: Optional[Sequence[float]] = None,
    ) -> None:
        """Accept a batch of lines, as :meth:`append` would one by one.

        The batch is checked first, so a line holding a line end is
        refused before any line of it is accepted.
        """
        if timestamps is not None and len(timestamps) != len(lines):
            raise IngestError("timestamps must align with lines")
        check_lines(lines)
        for i, line in enumerate(lines):
            self._accept(line, timestamps[i] if timestamps is not None else None)

    def flush(self) -> int:
        """Persist the pending tail; returns the number of lines stored."""
        if not self._pending:
            return 0
        lines = self._pending
        stamps = self._pending_stamps
        self._pending = []
        self._pending_stamps = []
        have_stamps = all(s is not None for s in stamps)
        # checked again there: ``system`` may be a caller's subclass whose
        # ingest takes only lines and timestamps
        self.system.ingest(lines, timestamps=stamps if have_stamps else None)
        self.lines_ingested += len(lines)
        self._m_pending.set(0)
        if have_stamps and self.snapshot_every_s is not None:
            latest = stamps[-1]
            if (
                self._last_snapshot_at is None
                or latest - self._last_snapshot_at >= self.snapshot_every_s
            ):
                self.system.index.flush(timestamp=latest)
                self._last_snapshot_at = latest
        for listener in self.flush_listeners:
            listener(len(lines), self.system.clock.now)
        return len(lines)

    # -- querying mid-stream ----------------------------------------------

    def query(self, *queries: Query, include_pending: bool = True) -> QueryOutcome:
        """Query the store; optionally cover the un-persisted tail too.

        Pending lines run through the scan kernel under the program the
        persisted pass compiled, as the one decoded text a flush would
        store, so they split into lines and tokens as stored text does
        and the answer equals the one the same call gives after
        :meth:`flush`. They are in host memory, so no storage accounting
        applies to them; their matches, counts and lines are added to the
        persisted pass's. Like :meth:`MithriLogSystem.query
        <repro.system.mithrilog.MithriLogSystem.query>`, a query before
        anything is persisted raises :class:`~repro.errors.QueryError`.
        """
        outcome = self.system.query(*queries)
        if include_pending and self._pending:
            text = b"\n".join(self._pending) + b"\n"
            result = _partition_kernel(self.system.scan_spec(), [(True, text)])
            outcome.matched_lines.extend(result.data.splitlines())
            for q, count in enumerate(result.per_query_counts):
                outcome.per_query_counts[q] += count
            outcome.stats.lines_seen += result.lines_seen
            outcome.stats.lines_kept += result.lines_kept
            if result.lines_seen:
                self._m_lines_filtered.inc(result.lines_seen)
            if result.lines_kept:
                self._m_lines_kept.inc(result.lines_kept)
        return outcome

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "StreamingIngestor":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is None:
            self.flush()
