"""The MithriLog storage device.

An SSD with a near-storage accelerator between the flash and the host link
(Figure 2). Per Section 3, host software configures the device per query,
then issues page reads which the device can serve in one of three modes:

- ``RAW`` — forward stored pages untouched,
- ``DECOMPRESS`` — run pages through the decompressor first,
- ``FILTER`` — stream pages through the configured scan program
  (decompressor → tokenizer → filter), forwarding only surviving lines;
  the host may cancel the read once enough matches arrived.

The device is *functional*: plug in a real page decompressor and a real
scan program. The device owns the flash side — which pages are pulled,
in what order, under which faults and retries — and the program the page
body; the system's program is the scan executor's partition kernel, so
a cancellable read and a full scan share one datapath. Timing is layered
on via an optional pipeline performance model (``repro.hw.perf``): a
streaming pipeline's elapsed time is set by its bottleneck stage, which
is exactly the arithmetic behind Figure 14.
"""

from __future__ import annotations

import enum
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
from repro.sim.clock import SimClock
from repro.storage.flash import FlashArray
from repro.storage.host_link import HostLink
from repro.storage.page import Page

#: Decompresses one stored page payload into text bytes.
PageDecompressor = Callable[[bytes], bytes]

#: The FILTER program: ``(pages, stop_after) -> result``. ``pages`` is a
#: lazy stream of ``(address, page)`` in request order — a page is read
#: from flash when the program pulls it — and ``stop_after`` the match
#: count at which the host cancels (``None``: never). The result carries
#: ``data`` (the kept lines, newline-terminated), ``bytes_decompressed``,
#: ``lines_seen`` and ``lines_kept``.
PageScanner = Callable[[Iterator[tuple[int, Page]], Optional[int]], Any]

#: Process-wide device key allocator (cache namespace per device).
_DEVICE_KEYS = itertools.count()


class ReadMode(enum.Enum):
    """What the device does to pages before DMAing them to the host."""

    RAW = "raw"
    DECOMPRESS = "decompress"
    FILTER = "filter"


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
    elapsed_s: float = 0.0
    read_retries: int = 0  #: transient page-read faults absorbed by retry

    @property
    def selectivity(self) -> float:
        """Fraction of lines that survived filtering (1.0 when not filtering)."""
        if self.lines_seen == 0:
            return 1.0
        return self.lines_kept / self.lines_seen


@dataclass
class DeviceConfig:
    """Per-query accelerator configuration (Section 3's command phase)."""

    decompress_page: Optional[PageDecompressor] = None  #: DECOMPRESS reads
    scan_pages: Optional[PageScanner] = None  #: FILTER reads


class MithriLogDevice:
    """Near-storage accelerated SSD: flash array + accelerator + host link."""

    def __init__(
        self,
        params: Optional[StorageParams] = None,
        host_link: Optional[HostLink] = None,
        flash: Optional[FlashArray] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.params = params if params is not None else StorageParams()
        self.flash = flash if flash is not None else FlashArray(self.params)
        self.host_link = host_link if host_link is not None else HostLink(
            bandwidth=self.params.external_bandwidth
        )
        self.config = DeviceConfig()
        #: Process-unique key naming this device in page-cache entries.
        self.device_key = next(_DEVICE_KEYS)
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        self._m_reads = handle("mithrilog_storage_device_reads_total")
        self._m_retries = handle("mithrilog_storage_read_retries_total")
        self._m_bytes_to_host = handle("mithrilog_storage_bytes_to_host_total")

    # -- configuration -------------------------------------------------

    def configure(
        self,
        decompress_page: Optional[PageDecompressor] = None,
        scan_pages: Optional[PageScanner] = None,
    ) -> None:
        """Program the accelerator for the next query."""
        self.config = DeviceConfig(
            decompress_page=decompress_page, scan_pages=scan_pages
        )

    # -- writes ----------------------------------------------------------

    def append_pages(self, pages: Sequence[Page]) -> list[int]:
        """Append pages to flash; returns their addresses (contiguous)."""
        return [self.flash.append_page(page) for page in pages]

    def write_page(self, address: int, page: Page) -> None:
        self.flash.write_page(address, page)

    # -- fault-tolerant page fetch ----------------------------------------

    def _read_one_with_retry(
        self, address: int, clock: Optional[SimClock]
    ) -> tuple[Page, int]:
        """Read one page, absorbing transient faults under the retry policy.

        Each retry waits the policy's backoff (charged to ``clock`` when
        present) and re-issues the read; the stored page is re-fetched, so
        read-path faults (bus errors, read-disturb flips) clear. Raises
        :class:`repro.errors.ReadRetryExhaustedError` once the budget is
        spent; persistent faults (bad blocks, bounds) pass through at once.
        """
        policy = self.retry_policy
        retries = 0
        while True:
            try:
                return self.flash.read_page(address, clock=clock), retries
            except RETRYABLE_STORAGE_ERRORS as exc:
                retries += 1
                if retries > policy.max_retries:
                    raise ReadRetryExhaustedError(
                        f"page {address} still failing after "
                        f"{policy.max_retries} retries: {exc}"
                    ) from exc
                if clock is not None:
                    clock.advance(policy.backoff(retries))

    def _read_batch_with_retry(
        self, addresses: Sequence[int], clock: Optional[SimClock]
    ) -> tuple[list[Page], int]:
        """Batched read with a fault-free fast path.

        The common case — no injector, no faults — is exactly the old
        single ``read_pages`` call. Only when a transient fault interrupts
        the batch does the slow path take over, re-reading page by page
        under the retry policy (paying per-page latency, as a controller
        re-issuing individual reads would).
        """
        try:
            return self.flash.read_pages(addresses, clock=clock), 0
        except RETRYABLE_STORAGE_ERRORS:
            pass
        retries = 1  # the torn batch attempt itself
        pages: list[Page] = []
        for address in addresses:
            page, extra = self._read_one_with_retry(address, clock)
            pages.append(page)
            retries += extra
        return pages, retries

    # -- executor-facing fetch -------------------------------------------

    def fetch_pages(
        self,
        addresses: Sequence[int],
        count_mode: Optional[ReadMode] = None,
    ) -> tuple[list[Page], int]:
        """Fetch raw pages for an externally-executed scan.

        The scan executor keeps flash access — and therefore fault
        injection, retries and read accounting — inside the device while
        running decompression and filtering itself. Reads go through the
        same batched retry path as :meth:`read`, in the same order, so a
        seeded fault schedule cannot tell the two apart. ``count_mode``
        attributes the request in the device's read counter (a scan
        executor fetch is still one FILTER-shaped request).
        """
        pages, retries = self._read_batch_with_retry(list(addresses), None)
        if count_mode is not None:
            self._m_reads.inc(mode=count_mode.value)
            if retries:
                self._m_retries.inc(retries)
        return pages, retries

    def account_host_bytes(self, nbytes: int) -> None:
        """Count bytes an external scan DMAed across the host link."""
        self._m_bytes_to_host.inc(nbytes)

    # -- reads -----------------------------------------------------------

    def read(
        self,
        addresses: Iterable[int],
        mode: ReadMode = ReadMode.RAW,
        clock: Optional[SimClock] = None,
        stop_after_matches: Optional[int] = None,
    ) -> DeviceReadResult:
        """Serve a page-read request in the given mode.

        The returned payload is the concatenation of per-page outputs. In
        ``FILTER`` mode the number of pages' worth of data returned may be
        far smaller than requested — host software is aware of this
        (Section 3) — and ``stop_after_matches`` lets the host cancel the
        request early once enough matches arrived (top-k exploration).
        """
        if stop_after_matches is not None and stop_after_matches <= 0:
            raise StorageError("stop_after_matches must be positive")
        if stop_after_matches is not None and mode is not ReadMode.FILTER:
            raise StorageError("early stop only applies to FILTER reads")
        start = clock.now if clock is not None else 0.0
        wanted = list(addresses)
        pulled: list[Page] = []
        retries = 0

        def pull() -> Iterator[tuple[int, Page]]:
            """Pages in request order, counted as the consumer takes them."""
            nonlocal retries
            batch = None
            if stop_after_matches is None:
                # one batched request: sequential runs amortise access latency
                batch, retries = self._read_batch_with_retry(wanted, clock)
            for index, address in enumerate(wanted):
                if batch is not None:
                    page = batch[index]
                else:
                    # cancellable: a page is fetched only once it is wanted
                    page, extra = self._read_one_with_retry(address, clock)
                    retries += extra
                pulled.append(page)
                yield address, page

        config = self.config
        lines_seen = lines_kept = bytes_decompressed = 0
        if mode is ReadMode.FILTER:
            if config.scan_pages is None:
                raise StorageError(
                    "filter read requested but no scan program configured"
                )
            scanned = config.scan_pages(pull(), stop_after_matches)
            data = scanned.data
            bytes_decompressed = scanned.bytes_decompressed
            lines_seen, lines_kept = scanned.lines_seen, scanned.lines_kept
        elif mode is ReadMode.DECOMPRESS:
            if config.decompress_page is None:
                raise StorageError(
                    "decompress read requested but no decompressor configured"
                )
            data = b"".join(config.decompress_page(p.data) for _, p in pull())
            bytes_decompressed = len(data)
        else:
            data = b"".join(page.data for _, page in pull())

        if clock is not None:
            self.host_link.send_to_host(len(data), clock=clock)
        elapsed = (clock.now - start) if clock is not None else 0.0
        self._m_reads.inc(mode=mode.value)
        self._m_bytes_to_host.inc(len(data))
        if retries:
            self._m_retries.inc(retries)
        return DeviceReadResult(
            data=data,
            pages_read=len(pulled),
            bytes_from_flash=sum(len(page) for page in pulled),
            bytes_decompressed=bytes_decompressed,
            bytes_to_host=len(data),
            lines_seen=lines_seen,
            lines_kept=lines_kept,
            elapsed_s=elapsed,
            read_retries=retries,
        )
