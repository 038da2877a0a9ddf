"""Simulated flash array.

A page-addressed store that verifies every page it reads and counts the
pages and bytes moved. It keeps no time: the storage parameters it
carries (``latency_s`` per access, ``internal_bandwidth`` across all
channels — BlueDBM: four cards x 1.2 GB/s = 4.8 GB/s aggregate) price a
read in :meth:`repro.params.StorageParams.flash_seconds`, which the
system applies to the bytes a query or an ingest moved.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.errors import PageBoundsError, StorageError, UnwrittenPageError
from repro.obs.metrics import handle
from repro.params import StorageParams
from repro.storage.page import Page

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injectors import PageFaultInjector


class FlashArray:
    """A fixed-capacity array of flash pages.

    An optional :class:`repro.faults.PageFaultInjector` can be attached
    (``fault_injector``); it is consulted on every page read and may raise
    a transient/persistent storage error or hand back a bit-flipped copy.
    When no injector is attached the read path pays one ``is None`` test.
    Metric handles are bound from the registry active at construction
    (no-ops if metrics are disabled).
    """

    def __init__(
        self,
        params: Optional[StorageParams] = None,
        fault_injector: Optional["PageFaultInjector"] = None,
    ) -> None:
        self.params = params if params is not None else StorageParams()
        self._pages: dict[int, Page] = {}
        self._next_free = 0
        self.fault_injector = fault_injector
        #: Called with the page address after every write (appends of data
        #: pages and index nodes, explicit writes such as a store reload). The
        #: decompressed-page cache registers its invalidation here; the
        #: write path pays one truthiness test when nobody is listening.
        self.write_listeners: list[Callable[[int], None]] = []
        self._m_pages_written = handle("mithrilog_storage_pages_written_total")

    # -- capacity ----------------------------------------------------------

    @property
    def capacity_pages(self) -> int:
        return self.params.capacity_pages

    @property
    def pages_written(self) -> int:
        return len(self._pages)

    @property
    def next_free_address(self) -> int:
        """Next append address (pages are allocated append-only, like a log)."""
        return self._next_free

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.params.capacity_pages:
            raise PageBoundsError(
                f"page address {address} outside capacity {self.params.capacity_pages}"
            )

    # -- functional API ----------------------------------------------------

    def write_page(self, address: int, page: Page) -> None:
        """Write a page at an explicit address (index structures use this)."""
        self._check_address(address)
        self._pages[address] = page
        if address >= self._next_free:
            self._next_free = address + 1
        self._m_pages_written.inc()
        if self.write_listeners:
            for listener in self.write_listeners:
                listener(address)

    def append_page(self, page: Page) -> int:
        """Append a page at the next free address and return that address."""
        address = self._next_free
        self._check_address(address)
        self._pages[address] = page
        self._next_free = address + 1
        self._m_pages_written.inc()
        if self.write_listeners:
            for listener in self.write_listeners:
                listener(address)
        return address

    def read_page(self, address: int) -> Page:
        """Read and verify one page."""
        self._check_address(address)
        try:
            page = self._pages[address]
        except KeyError:
            raise UnwrittenPageError(
                f"page {address} has never been written"
            ) from None
        if self.fault_injector is not None:
            page = self.fault_injector.on_read(address, page)
        page.verify()
        return page

    def read_pages(self, addresses: Iterable[int]) -> list[Page]:
        """Read and verify many pages, in request order."""
        pages = []
        for addr in addresses:
            self._check_address(addr)
            if addr not in self._pages:
                raise UnwrittenPageError(f"page {addr} has never been written")
            page = self._pages[addr]
            if self.fault_injector is not None:
                page = self.fault_injector.on_read(addr, page)
            page.verify()
            pages.append(page)
        return pages

    def corrupt_page(self, address: int, flip_at: int = 0) -> None:
        """Fault injection: silently corrupt a stored page in place."""
        self._check_address(address)
        if address not in self._pages:
            raise StorageError(f"page {address} has never been written")
        self._pages[address] = self._pages[address].corrupted(flip_at)

    def __contains__(self, address: int) -> bool:
        return address in self._pages
