"""Unit tests for the simulated flash array."""

import pytest

from repro.errors import PageBoundsError, PageCorruptionError, StorageError
from repro.params import StorageParams
from repro.storage.flash import FlashArray
from repro.storage.page import Page


@pytest.fixture
def flash():
    return FlashArray(StorageParams(capacity_pages=64))


class TestFlashFunctional:
    def test_append_returns_sequential_addresses(self, flash):
        a0 = flash.append_page(Page(b"a"))
        a1 = flash.append_page(Page(b"b"))
        assert (a0, a1) == (0, 1)
        assert flash.pages_written == 2

    def test_read_returns_written_page(self, flash):
        addr = flash.append_page(Page(b"payload"))
        assert flash.read_page(addr).data == b"payload"

    def test_read_unwritten_page_raises(self, flash):
        with pytest.raises(StorageError):
            flash.read_page(3)

    def test_out_of_bounds_rejected(self, flash):
        with pytest.raises(PageBoundsError):
            flash.read_page(64)
        with pytest.raises(PageBoundsError):
            flash.write_page(-1, Page(b"x"))

    def test_explicit_write_address(self, flash):
        flash.write_page(10, Page(b"x"))
        assert flash.read_page(10).data == b"x"
        assert flash.next_free_address == 11

    def test_append_after_explicit_write_continues(self, flash):
        flash.write_page(5, Page(b"x"))
        assert flash.append_page(Page(b"y")) == 6

    def test_read_pages_preserves_request_order(self, flash):
        for payload in (b"a", b"b", b"c"):
            flash.append_page(Page(payload))
        pages = flash.read_pages([2, 0, 1])
        assert [p.data for p in pages] == [b"c", b"a", b"b"]

    def test_corruption_detected_on_read(self, flash):
        addr = flash.append_page(Page(b"important"))
        flash.corrupt_page(addr)
        with pytest.raises(PageCorruptionError):
            flash.read_page(addr)

    def test_corrupt_unwritten_page_raises(self, flash):
        with pytest.raises(StorageError):
            flash.corrupt_page(0)

    def test_contains(self, flash):
        flash.append_page(Page(b"a"))
        assert 0 in flash
        assert 1 not in flash


class TestFlashTiming:
    """Flash time is ``StorageParams.flash_seconds`` of the bytes moved."""

    PARAMS = StorageParams(internal_bandwidth=4096, latency_s=1.0)

    def test_single_read_pays_latency_plus_stream(self):
        assert self.PARAMS.flash_seconds(4096) == 2.0  # 1 s + 4096 B @ 4096 B/s

    def test_sequential_run_amortises_latency(self):
        # one latency charge + 4 pages streamed
        assert self.PARAMS.flash_seconds(4 * 4096) == 1.0 + 4.0
