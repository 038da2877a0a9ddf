"""Scan execution: multi-query batching, page caching, worker fan-out.

The functional simulation's query hot path — flash read, LZAH decode,
tokenize, filter — is pure Python; this package makes it run as fast as
the host allows without moving a single simulated number:

- :class:`~repro.exec.executor.ScanExecutor` partitions a scan's pages
  over a process pool (deterministic in-process fallback at
  ``workers=1``),
- :class:`~repro.exec.cache.PageCache` is a bounded LRU of decompressed
  pages, fingerprint-guarded and invalidated on every flash write,
- one decompress+tokenize pass per page feeds *all* registered query
  filters, mirroring the paper's batched-query mode.

See ``docs/PERFORMANCE.md`` for the architecture and the determinism
guarantees, and ``benchmarks/bench_hotpath.py`` for the wall-clock
trajectory these pieces are measured by.
"""

from repro.exec.cache import DEFAULT_CACHE_PAGES, PageCache, payload_fingerprint
from repro.exec.executor import (
    KernelResult,
    ScanExecutor,
    ScanProgramSpec,
)

__all__ = [
    "DEFAULT_CACHE_PAGES",
    "KernelResult",
    "PageCache",
    "payload_fingerprint",
    "ScanExecutor",
    "ScanProgramSpec",
]
