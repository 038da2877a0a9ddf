"""The MithriLog storage device.

An SSD with a near-storage accelerator between the flash and the host link
(Figure 2). Per Section 3, host software configures the device once per
query, then streams FILTER reads: pages run through the scan program
(decompressor → tokenizer → filter) and only surviving lines cross the
host link; the host may cancel the read once enough matches arrived.

The device is *functional*: :meth:`MithriLogDevice.read` runs the scan
program it is handed. The device owns the flash side — which pages are
pulled, in what order, under which faults and retries — and the program
the page body; the system's program is the scan executor's partition
kernel, so a cancellable read and a full scan share one datapath. The
device keeps no time: the system derives every simulated second from the
bytes a read reports, with the bottleneck-stage arithmetic behind
Figure 14 (``MithriLogSystem._fill_scan_times``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.errors import (
    RETRYABLE_STORAGE_ERRORS,
    ReadRetryExhaustedError,
    StorageError,
)
from repro.faults.policies import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.obs.metrics import handle
from repro.params import StorageParams
from repro.storage.flash import FlashArray
from repro.storage.page import Page

#: The FILTER program: ``(pages, stop_after) -> result``. ``pages`` is a
#: lazy stream of ``(address, page)`` in request order — a page is read
#: from flash when the program pulls it — and ``stop_after`` the match
#: count at which the host cancels (``None``: never). The result carries
#: ``data`` (the kept lines, newline-terminated), ``bytes_decompressed``,
#: ``lines_seen`` and ``lines_kept``.
PageScanner = Callable[[Iterator[tuple[int, Page]], Optional[int]], Any]

#: Process-wide device key allocator (cache namespace per device).
_DEVICE_KEYS = itertools.count()


@dataclass
class DeviceReadResult:
    """Outcome of one device read request."""

    data: bytes
    pages_read: int
    bytes_from_flash: int
    bytes_decompressed: int
    bytes_to_host: int
    lines_seen: int = 0
    lines_kept: int = 0
    read_retries: int = 0  #: transient page-read faults absorbed by retry

    @property
    def selectivity(self) -> float:
        """Fraction of lines that survived filtering (1.0 when none were seen)."""
        if self.lines_seen == 0:
            return 1.0
        return self.lines_kept / self.lines_seen


class MithriLogDevice:
    """Near-storage accelerated SSD: flash array + accelerator + host link."""

    def __init__(
        self,
        params: Optional[StorageParams] = None,
        flash: Optional[FlashArray] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.params = params if params is not None else StorageParams()
        self.flash = flash if flash is not None else FlashArray(self.params)
        #: Process-unique key naming this device in page-cache entries.
        self.device_key = next(_DEVICE_KEYS)
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        self._m_reads = handle("mithrilog_storage_device_reads_total")

    # -- writes ----------------------------------------------------------

    def append_pages(self, pages: Sequence[Page]) -> list[int]:
        """Append pages to flash; returns their addresses (contiguous)."""
        return [self.flash.append_page(page) for page in pages]

    def write_page(self, address: int, page: Page) -> None:
        self.flash.write_page(address, page)

    # -- fault-tolerant page fetch ----------------------------------------

    def _read_one_with_retry(self, address: int) -> tuple[Page, int]:
        """Read one page, absorbing transient faults under the retry policy.

        Each retry re-issues the read; the stored page is re-fetched, so
        read-path faults (bus errors, read-disturb flips) clear. Retries
        are counted, not timed. Raises
        :class:`repro.errors.ReadRetryExhaustedError` once the budget is
        spent; persistent faults (bad blocks, bounds) pass through at once.
        """
        policy = self.retry_policy
        retries = 0
        while True:
            try:
                return self.flash.read_page(address), retries
            except RETRYABLE_STORAGE_ERRORS as exc:
                retries += 1
                if retries > policy.max_retries:
                    raise ReadRetryExhaustedError(
                        f"page {address} still failing after "
                        f"{policy.max_retries} retries: {exc}"
                    ) from exc

    def _read_batch_with_retry(
        self, addresses: Sequence[int]
    ) -> tuple[list[Page], int]:
        """Batched read with a fault-free fast path.

        The common case — no injector, no faults — is one ``read_pages``
        call. Only when a transient fault interrupts the batch does the
        slow path take over, re-reading page by page under the retry
        policy, as a controller re-issuing individual reads would.
        """
        try:
            return self.flash.read_pages(addresses), 0
        except RETRYABLE_STORAGE_ERRORS:
            pass
        retries = 1  # the torn batch attempt itself
        pages: list[Page] = []
        for address in addresses:
            page, extra = self._read_one_with_retry(address)
            pages.append(page)
            retries += extra
        return pages, retries

    # -- executor-facing fetch -------------------------------------------

    def fetch_pages(self, addresses: Sequence[int]) -> tuple[list[Page], int]:
        """Fetch raw pages for an externally-executed scan.

        The scan executor keeps flash access — and therefore fault
        injection, retries and read accounting — inside the device while
        running decompression and filtering itself. Reads go through the
        same batched retry path as :meth:`read`, in the same order, so a
        seeded fault schedule cannot tell the two apart; the fetch counts
        as one device read request.
        """
        pages, retries = self._read_batch_with_retry(list(addresses))
        self._m_reads.inc()
        return pages, retries

    # -- reads -----------------------------------------------------------

    def read(
        self,
        addresses: Iterable[int],
        scan_pages: PageScanner,
        stop_after_matches: Optional[int] = None,
    ) -> DeviceReadResult:
        """Serve one FILTER read: stream the pages through ``scan_pages``.

        The returned payload is what the scan program kept, so the data
        returned may be far smaller than the pages requested — host
        software is aware of this (Section 3) — and ``stop_after_matches``
        lets the host cancel the request early once enough matches
        arrived (top-k exploration).
        """
        if stop_after_matches is not None and stop_after_matches <= 0:
            raise StorageError("stop_after_matches must be positive")
        wanted = list(addresses)
        pulled: list[Page] = []
        retries = 0

        def pull() -> Iterator[tuple[int, Page]]:
            """Pages in request order, counted as the consumer takes them."""
            nonlocal retries
            batch = None
            if stop_after_matches is None:
                batch, retries = self._read_batch_with_retry(wanted)
            for index, address in enumerate(wanted):
                if batch is not None:
                    page = batch[index]
                else:
                    # cancellable: a page is fetched only once it is wanted
                    page, extra = self._read_one_with_retry(address)
                    retries += extra
                pulled.append(page)
                yield address, page

        scanned = scan_pages(pull(), stop_after_matches)
        data = scanned.data
        self._m_reads.inc()
        return DeviceReadResult(
            data=data,
            pages_read=len(pulled),
            bytes_from_flash=sum(len(page) for page in pulled),
            bytes_decompressed=scanned.bytes_decompressed,
            bytes_to_host=len(data),
            lines_seen=scanned.lines_seen,
            lines_kept=scanned.lines_kept,
            read_retries=retries,
        )
