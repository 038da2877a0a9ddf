"""Durability: write-ahead logging and crash recovery.

The simulated flash device lives in memory, so durability in this
reproduction is a host-side contract, the way log *collectors* provide
it: every ingested batch is appended to a write-ahead log on disk before
it is considered accepted; checkpoints persist the whole store
(:mod:`repro.system.persistence`) and truncate the WAL; recovery loads
the last checkpoint and replays the WAL's tail. Losing neither
acknowledged lines nor index consistency across a crash, and applying
no batch twice wherever in a checkpoint it fell, is the property the
tests drive.

WAL record format (binary, self-delimiting, one record per batch):

``u32 record_bytes | u8 has_timestamps | u32 n_lines | u32 crc32(body) |
gzip(payload)``

where the payload is newline-joined lines, optionally followed by the
``n_lines`` float64 timestamps. The body CRC makes *corruption* (bit
rot, torn sector) distinguishable from a merely *short* file, so
recovery can classify the tail correctly: a torn or corrupt final record
is dropped — its batch was never acknowledged — and
:meth:`WriteAheadLog.repair` physically truncates the file back to the
last valid record so later appends never land beyond unreadable bytes
(which would silently orphan every acknowledged batch after the tear).

Fault injection: an optional
:class:`repro.faults.WalFaultInjector` tears appends mid-record,
exactly as a crash between ``write`` and ``flush`` would.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

from repro.errors import IngestError, TornRecordError, WalRecordError
from repro.obs.metrics import handle
from repro.system.mithrilog import IngestReport, MithriLogSystem
from repro.system.persistence import (
    JOURNAL_NAME,
    open_store,
    save_metadata,
    save_store,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injectors import WalFaultInjector

_HEADER = struct.Struct("<IBII")

#: One replayed batch: the lines and their optional timestamps.
Batch = tuple[list[bytes], Optional[list[float]]]


def encode_record(
    lines: Sequence[bytes], timestamps: Optional[Sequence[float]] = None
) -> bytes:
    """Encode one batch as a self-delimiting WAL record."""
    if not lines:
        raise WalRecordError("a WAL record must carry at least one line")
    if timestamps is not None and len(timestamps) != len(lines):
        raise WalRecordError("timestamps must align with lines")
    payload = b"\n".join(lines)
    if timestamps is not None:
        payload += b"\x00" + struct.pack(f"<{len(timestamps)}d", *timestamps)
    body = zlib.compress(payload, 1)
    header = _HEADER.pack(
        len(body),
        1 if timestamps is not None else 0,
        len(lines),
        zlib.crc32(body),
    )
    return header + body


def decode_record(blob: bytes, pos: int = 0) -> tuple[list[bytes], Optional[list[float]], int]:
    """Decode the record starting at ``pos``; returns (lines, stamps, next_pos).

    Raises :class:`repro.errors.TornRecordError` when the blob ends before
    the record does (crash mid-append) and
    :class:`repro.errors.WalRecordError` when the record is complete but
    corrupt (checksum, structure). Torn vs corrupt matters to recovery
    only for reporting; both stop the replay.
    """
    if pos + _HEADER.size > len(blob):
        raise TornRecordError("WAL record header cut short")
    body_len, has_stamps, n_lines, crc = _HEADER.unpack(
        blob[pos : pos + _HEADER.size]
    )
    if has_stamps not in (0, 1):
        raise WalRecordError(f"WAL record flag byte {has_stamps} is invalid")
    if n_lines == 0:
        raise WalRecordError("WAL record declares zero lines")
    start = pos + _HEADER.size
    if start + body_len > len(blob):
        raise TornRecordError("WAL record body cut short")
    body = blob[start : start + body_len]
    if zlib.crc32(body) != crc:
        raise WalRecordError("WAL record checksum mismatch")
    try:
        payload = zlib.decompress(body)
    except zlib.error as exc:
        raise WalRecordError(f"WAL record body undecodable: {exc}") from exc
    if has_stamps:
        stamp_bytes = 8 * n_lines
        if len(payload) < stamp_bytes + 1:
            raise WalRecordError("WAL record too short for its timestamps")
        text, raw = payload[: -stamp_bytes - 1], payload[-stamp_bytes:]
        timestamps: Optional[list[float]] = list(
            struct.unpack(f"<{n_lines}d", raw)
        )
    else:
        text, timestamps = payload, None
    lines = text.split(b"\n")
    if len(lines) != n_lines:
        raise WalRecordError(
            f"WAL record declares {n_lines} lines but carries {len(lines)}"
        )
    return lines, timestamps, start + body_len


@dataclass
class WalScanReport:
    """Outcome of walking the journal front to back."""

    batches: list[Batch] = field(default_factory=list)
    valid_bytes: int = 0  #: offset of the last byte of the last valid record
    total_bytes: int = 0
    torn: bool = False  #: the tail was incomplete (crash mid-append)
    corrupt: bool = False  #: the tail was complete but failed validation
    reason: str = ""

    @property
    def clean(self) -> bool:
        """True when every byte of the file decoded into valid records."""
        return self.valid_bytes == self.total_bytes


class WriteAheadLog:
    """Append-only batch journal on the host filesystem."""

    def __init__(
        self,
        path: Union[str, Path],
        fault_injector: Optional["WalFaultInjector"] = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.touch(exist_ok=True)
        self.fault_injector = fault_injector
        self._m_appends = handle("mithrilog_wal_appends_total")
        self._m_bytes = handle("mithrilog_wal_bytes_appended_total")
        self._m_fsyncs = handle("mithrilog_wal_fsync_batches_total")
        self._m_recoveries = handle("mithrilog_wal_recoveries_total")
        self._m_dropped = handle("mithrilog_wal_records_dropped_total")
        self._m_truncated = handle("mithrilog_wal_bytes_truncated_total")

    def append(
        self,
        lines: Sequence[bytes],
        timestamps: Optional[Sequence[float]] = None,
    ) -> None:
        """Journal one batch; returns only once the bytes are flushed."""
        if timestamps is not None and len(timestamps) != len(lines):
            raise IngestError("timestamps must align with lines")
        if not lines:
            return
        record = encode_record(lines, timestamps)
        if self.fault_injector is not None:
            record = self.fault_injector.on_append(record)
        with open(self.path, "ab") as journal:
            journal.write(record)
            journal.flush()
        self._m_appends.inc()
        self._m_bytes.inc(len(record))
        self._m_fsyncs.inc()

    def scan(self, start: int = 0) -> WalScanReport:
        """Walk the journal from record boundary ``start``, collecting
        valid batches and tail diagnosis."""
        blob = self.path.read_bytes()
        pos = min(start, len(blob))
        report = WalScanReport(total_bytes=len(blob), valid_bytes=pos)
        while pos < len(blob):
            try:
                lines, timestamps, pos = decode_record(blob, pos)
            except TornRecordError as exc:
                report.torn = True
                report.reason = str(exc)
                break
            except WalRecordError as exc:
                report.corrupt = True
                report.reason = str(exc)
                break
            report.batches.append((lines, timestamps))
            report.valid_bytes = pos
        return report

    def replay(self, start: int = 0) -> Iterator[Batch]:
        """Yield ``(lines, timestamps)`` batches in append order.

        A torn or corrupt final record (crash mid-append, tail bit rot)
        is tolerated and dropped — its batch was never acknowledged.
        """
        yield from self.scan(start).batches

    def repair(self) -> int:
        """Physically truncate the journal to its last valid record.

        Without this, a torn tail left in place would swallow every
        record appended *after* it — acknowledged batches that a later
        replay would silently never reach. Returns the bytes dropped.
        """
        report = self.scan()
        dropped = report.total_bytes - report.valid_bytes
        if dropped:
            blob = self.path.read_bytes()
            self.path.write_bytes(blob[: report.valid_bytes])
        outcome = "torn" if report.torn else (
            "corrupt" if report.corrupt else "clean"
        )
        self._m_recoveries.inc(outcome=outcome)
        if dropped:
            self._m_dropped.inc()
            self._m_truncated.inc(dropped)
        return dropped

    def truncate(self) -> None:
        """Empty the journal (after a checkpoint persisted the store)."""
        self.path.write_bytes(b"")

    @property
    def size_bytes(self) -> int:
        """Current journal size on disk."""
        return self.path.stat().st_size


class JournaledMithriLog:
    """A MithriLog system with WAL-backed durable ingestion."""

    def __init__(
        self,
        store_dir: Union[str, Path],
        system: Optional[MithriLogSystem] = None,
        seed: int = 0,
        wal_fault_injector: Optional["WalFaultInjector"] = None,
    ) -> None:
        self.store_dir = Path(store_dir)
        self.system = system if system is not None else MithriLogSystem(seed=seed)
        self.wal = WriteAheadLog(
            self.store_dir / JOURNAL_NAME, fault_injector=wal_fault_injector
        )

    def ingest(
        self,
        lines: Sequence[bytes],
        timestamps: Optional[Sequence[float]] = None,
    ) -> IngestReport:
        """Durable ingest: journal first, then apply."""
        self.wal.append(lines, timestamps)
        return self.system.ingest(lines, timestamps=timestamps)

    def query(self, *queries, **kwargs):
        """Delegate to the underlying system's query path."""
        return self.system.query(*queries, **kwargs)

    def checkpoint(self) -> None:
        """Persist the full store and truncate the journal.

        The saved store says it contains the journal as it stands, so a
        crash before the truncation replays nothing twice; the store is
        told of the truncation before the journal can grow past the mark.
        """
        save_store(self.system, self.store_dir)
        self.wal.truncate()
        save_metadata(self.system, self.store_dir)

    @classmethod
    def recover(cls, store_dir: Union[str, Path], seed: int = 0) -> "JournaledMithriLog":
        """Rebuild after a crash: last checkpoint + WAL tail replay.

        Each acknowledged batch is applied exactly once: the journal
        prefix the store says it contains is skipped, unless the journal
        is shorter than that — then it was truncated after the save and
        everything in it is new. The journal is repaired (torn/corrupt
        tail physically truncated) before new writes are accepted, so
        post-recovery appends extend a well-formed journal rather than
        hiding behind unreadable bytes.
        """
        store_dir = Path(store_dir)
        applied = 0
        if (store_dir / "store.json").exists():
            system, applied = open_store(store_dir, seed=seed)
        else:
            system = MithriLogSystem(seed=seed)
        journaled = cls(store_dir, system=system, seed=seed)
        truncated_since = journaled.wal.size_bytes < applied
        journaled.wal.repair()
        for lines, timestamps in journaled.wal.replay(
            0 if truncated_since else applied
        ):
            system.ingest(lines, timestamps=timestamps)
        if truncated_since:
            # the crash fell between truncating and telling the store:
            # finish that checkpoint before the journal outgrows the mark
            journaled.checkpoint()
        return journaled
