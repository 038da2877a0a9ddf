"""Coverage for the ``repro.errors`` hierarchy.

Every public exception class must be raised by at least one real code
path; an introspective completeness check keeps the parametrization
honest when new classes are added.
"""

import inspect

import pytest

import repro.errors as errors_module
from repro.compression.lzah import LZAHCompressor
from repro.core.cuckoo import CuckooHashTable
from repro.core.query import parse_query
from repro.errors import (
    BadBlockError,
    CapacityError,
    CompressedFormatError,
    CompressionError,
    IngestError,
    LogIndexError,
    MithriLogError,
    PageBoundsError,
    PageCorruptionError,
    PageReadError,
    PlacementError,
    QueryError,
    QueryParseError,
    ReadRetryExhaustedError,
    ShardUnavailableError,
    StorageError,
    TornRecordError,
    UnwrittenPageError,
    WalRecordError,
)
from repro.faults import AlwaysSchedule, PageFaultInjector, ShardFaultInjector
from repro.index.storetree import NodePool
from repro.params import PAGE_BYTES, StorageParams
from repro.storage.device import MithriLogDevice
from repro.storage.flash import FlashArray
from repro.storage.page import Page
from repro.system.mithrilog import MithriLogSystem
from repro.system.wal import decode_record, encode_record


def _conflicting_placement():
    table = CuckooHashTable()
    table.add_term(b"token", 0, negative=False)
    table.add_term(b"token", 0, negative=True)


def _overprovisioned_iset():
    CuckooHashTable().add_term(b"token", 10**6, negative=False)


def _oversized_page():
    Page(b"x" * (PAGE_BYTES + 1))


def _out_of_bounds_read():
    FlashArray(StorageParams(capacity_pages=4)).read_page(99)


def _unwritten_read():
    FlashArray().read_page(0)


def _corrupt_page_read():
    Page(b"payload").corrupted(0).verify()


def _injected_read_error():
    PageFaultInjector(read_errors=AlwaysSchedule()).on_read(0, Page(b"x"))


def _bad_block_read():
    PageFaultInjector(bad_addresses={0}).on_read(0, Page(b"x"))


def _retry_exhaustion():
    device = MithriLogDevice(StorageParams(capacity_pages=8))
    (address,) = device.append_pages([Page(b"doomed")])
    device.flash.corrupt_page(address)  # persistent: every re-read fails
    device.fetch_pages([address])


def _corrupt_wal_record():
    blob = bytearray(encode_record([b"line"]))
    blob[-1] ^= 0xFF
    decode_record(bytes(blob))


def _torn_wal_record():
    decode_record(encode_record([b"line"])[:-3])


def _down_shard():
    ShardFaultInjector(shard_down=AlwaysSchedule()).on_query(0)


def _truncated_lzah_stream():
    LZAHCompressor().decompress(b"short")


def _misaligned_ingest():
    MithriLogSystem().ingest([b"a"], timestamps=[1.0, 2.0])


def _misaligned_node_pool():
    NodePool(FlashArray(), 100, 4096)


def _empty_query_call():
    MithriLogSystem().query()


TRIGGERS = {
    MithriLogError: _empty_query_call,
    QueryError: _empty_query_call,
    QueryParseError: lambda: parse_query(""),
    PlacementError: _conflicting_placement,
    CapacityError: _overprovisioned_iset,
    StorageError: _oversized_page,
    PageBoundsError: _out_of_bounds_read,
    UnwrittenPageError: _unwritten_read,
    PageReadError: _injected_read_error,
    PageCorruptionError: _corrupt_page_read,
    BadBlockError: _bad_block_read,
    ReadRetryExhaustedError: _retry_exhaustion,
    WalRecordError: _corrupt_wal_record,
    TornRecordError: _torn_wal_record,
    ShardUnavailableError: _down_shard,
    CompressionError: _truncated_lzah_stream,
    CompressedFormatError: _truncated_lzah_stream,
    LogIndexError: _misaligned_node_pool,
    IngestError: _misaligned_ingest,
}


@pytest.mark.parametrize(
    "exc, trigger", TRIGGERS.items(), ids=[e.__name__ for e in TRIGGERS]
)
def test_every_exception_has_a_raising_code_path(exc, trigger):
    with pytest.raises(exc):
        trigger()


def test_trigger_map_is_complete():
    """Adding an exception class without a trigger fails this test."""
    public = {
        obj
        for _, obj in inspect.getmembers(errors_module, inspect.isclass)
        if issubclass(obj, MithriLogError)
    }
    assert public == set(TRIGGERS)


def test_exact_types_for_leaf_exceptions():
    """Leaf triggers raise precisely their class, not a parent."""
    leaves = [
        exc
        for exc in TRIGGERS
        if not any(other is not exc and issubclass(other, exc) for other in TRIGGERS)
    ]
    for exc in leaves:
        with pytest.raises(exc) as caught:
            TRIGGERS[exc]()
        assert type(caught.value) is exc, exc.__name__


def test_retryable_tuple_contains_only_transients():
    assert set(errors_module.RETRYABLE_STORAGE_ERRORS) == {
        PageReadError,
        PageCorruptionError,
    }
    for exc in (BadBlockError, UnwrittenPageError, PageBoundsError):
        assert not issubclass(exc, errors_module.RETRYABLE_STORAGE_ERRORS)


class TestUnwrittenPageRegression:
    """Reading a never-written page must raise the bounds family, not
    leak a raw ``KeyError`` (the old behaviour for single-page reads)."""

    def test_read_page_and_read_pages_agree(self):
        flash = FlashArray(StorageParams(capacity_pages=8))
        flash.append_page(Page(b"written"))
        with pytest.raises(UnwrittenPageError):
            flash.read_page(5)
        with pytest.raises(UnwrittenPageError):
            flash.read_pages([0, 5])
        with pytest.raises(PageBoundsError):
            flash.read_page(5)  # the subclass relationship holds

    def test_unwritten_is_not_retried_by_the_device(self):
        device = MithriLogDevice(StorageParams(capacity_pages=8))
        device.append_pages([Page(b"written")])
        with pytest.raises(UnwrittenPageError):
            device.fetch_pages([0, 5])
