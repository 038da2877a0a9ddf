"""Exception hierarchy for the MithriLog reproduction.

All library-raised errors derive from :class:`MithriLogError` so callers can
catch the whole family with one clause while still being able to distinguish
the specific failure (query compilation, storage, compression, index).

Storage errors are further split by *recoverability*: transient faults
(:class:`PageReadError`, :class:`PageCorruptionError`) are retried by the
device's read path under a bounded :class:`repro.faults.RetryPolicy`, while
persistent faults (:class:`BadBlockError`, :class:`UnwrittenPageError`)
fail fast and surface to the cluster layer, which degrades the query
instead of crashing it.
"""

from __future__ import annotations


class MithriLogError(Exception):
    """Base class for all errors raised by this library."""


class QueryError(MithriLogError):
    """A query is malformed or cannot be represented."""


class QueryParseError(QueryError):
    """The textual query form could not be parsed."""


class PlacementError(QueryError):
    """Cuckoo hash placement failed; the query cannot be offloaded.

    The paper's remedy is falling back to software evaluation
    (Section 4.2.1); :class:`repro.core.engine.TokenFilterEngine` does this
    automatically.
    """


class CapacityError(QueryError):
    """The query exceeds fixed hardware provisioning (e.g. more than
    ``FLAG_PAIRS`` intersection sets, or overflow table exhaustion).

    In a query pass, :meth:`repro.core.engine.TokenFilterEngine.compile`
    catches it, like a :class:`PlacementError`, and the scan kernel then
    evaluates the queries in software."""


class StorageError(MithriLogError):
    """A simulated storage device operation failed."""


class PageBoundsError(StorageError):
    """A page address is outside the device's provisioned capacity."""


class UnwrittenPageError(PageBoundsError):
    """A page address inside capacity was read before ever being written.

    Subclasses :class:`PageBoundsError` because, to the reader, the address
    is equally outside the valid (written) region — callers that handle
    bounds errors handle this one too.
    """


class PageReadError(StorageError):
    """A page read failed transiently (media/bus error); retrying may succeed.

    Raised by fault injection (:class:`repro.faults.PageFaultInjector`); the
    device's retry policy re-issues the read.
    """


class PageCorruptionError(StorageError):
    """A page failed its integrity check on read (bit flip caught by the
    page checksum). Treated as transient: a re-read may return clean data
    when the flip happened on the read path rather than in the cells."""


class BadBlockError(StorageError):
    """A flash block went bad and the data on it is unrecoverable.

    Persistent: retries cannot help. The cluster layer reports the shard
    as degraded instead of failing the whole query.
    """


class ReadRetryExhaustedError(StorageError):
    """A transient read fault persisted through every allowed retry."""


class WalRecordError(StorageError):
    """A write-ahead-log record is corrupt (bad checksum, bad structure)."""


class TornRecordError(WalRecordError):
    """A write-ahead-log record is incomplete (crash tore the append)."""


class ShardUnavailableError(StorageError):
    """A whole cluster shard (device) is unreachable or down."""


class CompressionError(MithriLogError):
    """Compression or decompression failed."""


class CompressedFormatError(CompressionError):
    """A compressed stream violates the on-disk format."""


class LogIndexError(MithriLogError):
    """Inverted-index operation failed."""


class IngestError(MithriLogError):
    """End-to-end ingestion failed."""


#: Transient storage faults the device read path retries; everything else
#: under :class:`StorageError` is persistent and fails fast.
RETRYABLE_STORAGE_ERRORS = (PageReadError, PageCorruptionError)
