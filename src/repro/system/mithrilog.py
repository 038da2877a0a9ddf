"""The complete MithriLog system (Figure 2).

Ingest path: log lines are packed into chunks whose **compressed** form
fills one flash page (so the storage's internal bandwidth delivers
compressed data and the effective read bandwidth is multiplied by the
compression ratio — Section 5's whole purpose), appended to the device,
and indexed page-by-page in the inverted index.

Query path: the index proposes candidate pages (a superset); the pass's
scan program (decompressor, tokenizer, compiled token filter) is built
once; pages stream through it — all at once for a full scan, one at a
time and cancellable under ``limit=`` — and only surviving lines cross
PCIe. Timing is the paper's pipeline arithmetic: the elapsed scan
time is set by the slowest of {flash supply, accelerator consumption,
host link}, plus the latency-bound index traversal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from repro.compression.lzah import LZAHCompressor
from repro.core.backend import resolve_kernel
from repro.core.engine import TokenFilterEngine
from repro.core.query import Query
from repro.core.tokenizer import page_token_set
from repro.errors import IngestError, QueryError
from repro.exec.cache import DEFAULT_CACHE_PAGES, PageCache
from repro.exec.executor import (
    KernelResult,
    ScanExecutor,
    ScanProgramSpec,
    _partition_kernel,
)
from repro.hw.perf import PipelineCycleModel, measure_tokenized_stats
from repro.index.inverted import InvertedIndex
from repro.obs.explain import ExplainReport, build_explain
from repro.obs.journal import template_fingerprint
from repro.obs.metrics import get_registry, handle
from repro.obs.profile import TraceContext, merge_into_registry, profile_to_dict
from repro.obs.tracing import SpanTracer
from repro.params import PROTOTYPE, SystemParams
from repro.sim.clock import SimClock
from repro.storage.device import DeviceReadResult, MithriLogDevice
from repro.storage.page import Page
from repro.stream.sampling import SampleEstimate, estimate_matches, sample_pages

#: Lines sampled for the ingest-time pipeline capability measurement.
_PERF_SAMPLE_LINES = 2000


@dataclass(frozen=True)
class IngestCostModel:
    """Per-unit costs of the ingest pipeline.

    Storage writes stream compressed pages at the internal bandwidth;
    compression runs on the accelerator at the LZAH wire speed; the
    host-side index pays a small hash+append per posting (Section 6's
    design goal is precisely that this side never becomes the
    bottleneck).
    """

    posting_insert_s: float = 10e-9  # hash + buffer append per token
    line_overhead_s: float = 20e-9  # tokenization bookkeeping per line

    def host_seconds(self, lines: int, postings: int) -> float:
        return lines * self.line_overhead_s + postings * self.posting_insert_s


@dataclass(frozen=True)
class IngestReport:
    """What one ingest call stored, and the modelled time it took."""

    lines: int
    original_bytes: int
    compressed_bytes: int
    pages_written: int
    index_memory_bytes: int
    postings_inserted: int = 0
    storage_time_s: float = 0.0
    compress_time_s: float = 0.0
    host_time_s: float = 0.0

    @property
    def compression_ratio(self) -> float:
        if self.compressed_bytes == 0:
            return 1.0
        return self.original_bytes / self.compressed_bytes

    @property
    def elapsed_s(self) -> float:
        """Pipelined ingest: the slowest stage paces the whole."""
        return max(self.storage_time_s, self.compress_time_s, self.host_time_s)

    @property
    def ingest_bytes_per_sec(self) -> float:
        if self.elapsed_s == 0:
            return 0.0
        return self.original_bytes / self.elapsed_s

    @property
    def breakdown(self) -> dict[str, float]:
        """Per-phase times keyed by the actual phase names.

        The keys mirror the ``*_time_s`` fields — ``storage`` (flash
        writes), ``compress`` (accelerator compression), ``host``
        (tokenization + index inserts). Host time used to be mislabelled
        ``"index"`` here, which made renderers disagree with the fields.
        """
        return {
            "storage": self.storage_time_s,
            "compress": self.compress_time_s,
            "host": self.host_time_s,
        }

    @property
    def bottleneck(self) -> str:
        stages = self.breakdown
        return max(stages, key=stages.get)


@dataclass
class QueryStats:
    """Performance accounting for one query."""

    candidate_pages: int = 0
    pages_read: int = 0  # < candidate_pages when a limit cancelled early
    total_pages: int = 0
    bytes_from_flash: int = 0
    bytes_decompressed: int = 0
    bytes_to_host: int = 0
    lines_seen: int = 0
    lines_kept: int = 0
    index_root_visits: int = 0
    index_tokens_looked_up: int = 0
    index_full_scan: bool = False
    index_time_s: float = 0.0
    scan_time_s: float = 0.0
    offloaded: bool = True
    read_retries: int = 0  #: transient page faults absorbed by device retries
    # per-stage times inside the scan (the pipelined stages overlap;
    # ``scan_time_s`` is their max, not their sum)
    flash_time_s: float = 0.0
    decompress_time_s: float = 0.0
    filter_time_s: float = 0.0
    host_time_s: float = 0.0
    cache_hits: int = 0  #: decompressed-page cache hits during this query
    cache_misses: int = 0
    partitions: int = 1  #: scan partitions executed (1 on the serial path)
    #: approximate scans only: the configured Bernoulli page-sampling
    #: rate and how many candidate pages survived the draw
    sample_fraction: Optional[float] = None
    pages_sampled: int = 0
    #: deterministic per-stage ``{"calls", "units"}`` counts, synthesized
    #: from the page/byte accounting — identical at any worker count.
    profile: dict[str, dict[str, int]] = field(default_factory=dict)
    #: measured host wall-clock per stage (``calls``/``units``/``wall_s``),
    #: aggregated across pool workers — a real observation, varies run
    #: to run and cold vs warm cache.
    host_profile: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def elapsed_s(self) -> float:
        return self.index_time_s + self.scan_time_s

    @property
    def breakdown(self) -> dict[str, float]:
        """Per-phase times keyed by the actual phase names.

        ``index`` is serial (latency-bound traversal before the scan);
        ``flash``/``decompress``/``filter``/``host`` overlap in the
        streaming pipeline, so ``elapsed_s == index + max(the rest)``.
        These keys match the span names the tracer emits.
        """
        return {
            "index": self.index_time_s,
            "flash": self.flash_time_s,
            "decompress": self.decompress_time_s,
            "filter": self.filter_time_s,
            "host": self.host_time_s,
        }

    @property
    def bottleneck(self) -> str:
        """The scan stage that paces the streaming pipeline."""
        stages = {
            k: v for k, v in self.breakdown.items() if k != "index"
        }
        return max(stages, key=stages.get)

    @property
    def index_reduction(self) -> float:
        """Fraction of pages the index let the query skip."""
        if self.total_pages == 0:
            return 0.0
        return 1.0 - self.candidate_pages / self.total_pages


@dataclass
class QueryOutcome:
    """Result of one end-to-end query."""

    matched_lines: list[bytes]
    per_query_counts: list[int]
    stats: QueryStats
    #: EXPLAIN ANALYZE report, attached when the query ran with
    #: ``analyze=True``.
    explain: Optional[ExplainReport] = None
    #: sampled scans only: one estimate per query scaling its sampled
    #: match count back to the full candidate set.
    estimates: Optional[list[SampleEstimate]] = None

    def effective_throughput(self, original_bytes: int) -> float:
        """The paper's metric: original dataset size / elapsed time."""
        if self.stats.elapsed_s == 0:
            return 0.0
        return original_bytes / self.stats.elapsed_s


def _union(queries: Sequence[Query]) -> Query:
    """The queries joined by union: what the index and the planner see."""
    union = queries[0]
    for extra in queries[1:]:
        union = union | extra
    return union


@dataclass
class _Pass:
    """One query pass: what was asked, then what each stage decided.

    ``query()`` builds one and hands it through begin → select pages →
    scan → account → observe; each stage reads what the earlier ones
    wrote and fills in its own fields.
    """

    queries: tuple[Query, ...]
    use_index: bool = True
    time_range: Optional[tuple[Optional[float], Optional[float]]] = None
    limit: Optional[int] = None
    newest_first: bool = False
    workers: int = 1
    analyze: bool = False
    context: Optional[TraceContext] = None
    within_pages: Optional[Sequence[int]] = None
    sample_fraction: Optional[float] = None
    sample_seed: int = 0
    # begin
    union: Optional[Query] = None
    estimate: Optional[object] = None  #: the planner's QueryPlan (``analyze``)
    stats: Optional[QueryStats] = None
    # select pages
    candidates: list[int] = field(default_factory=list)
    sample_pool: int = 0  #: candidate pages before sampling
    # scan
    partitions: Sequence = ()  #: executor partition records (``workers > 1``)
    matched: Optional[list[bytes]] = None
    per_query: Optional[list[int]] = None

    @property
    def mode(self) -> str:
        """How the journal files this pass."""
        if self.sample_fraction is not None:
            return "sampled"
        if self.within_pages is not None:
            return "standing"
        return "exact"


class MithriLogSystem:
    """Host software + near-storage accelerated device, end to end."""

    def __init__(
        self,
        params: Optional[SystemParams] = None,
        seed: int = 0,
        device: Optional[MithriLogDevice] = None,
        tracer: Optional[SpanTracer] = None,
        cache_pages: int = DEFAULT_CACHE_PAGES,
        scan_kernel: Optional[str] = None,
        journal=None,
    ) -> None:
        self.params = params if params is not None else PROTOTYPE
        #: Scan kernel (``None`` means ``auto``, see
        #: :func:`repro.core.backend.resolve_kernel`). Resolved per scan,
        #: in this process, so pool workers inherit the parent's choice
        #: via the program spec.
        self.scan_kernel = scan_kernel
        self.device = (
            device if device is not None else MithriLogDevice(self.params.storage)
        )
        self.codec = LZAHCompressor(self.params.lzah)
        #: Decompressed-page LRU (``cache_pages <= 0`` disables it). Keyed
        #: by (device, page, codec); every flash write — data and index-node
        #: appends, explicit rewrites — invalidates through the listener.
        self.page_cache = PageCache(cache_pages)
        self._codec_key = (self.codec.name, self.params.lzah)
        self.device.flash.write_listeners.append(
            lambda address: self.page_cache.invalidate(
                self.device.device_key, address
            )
        )
        #: Scan executors by worker count, created lazily and reused so a
        #: worker pool survives across queries.
        self._scan_executors: dict[int, ScanExecutor] = {}
        self.index = InvertedIndex(
            self.device.flash,
            self.params.index,
            self.params.storage.page_bytes,
            seed=seed,
        )
        self.engine = TokenFilterEngine(
            num_pipelines=self.params.num_pipelines,
            cuckoo_params=self.params.cuckoo,
            seed=seed,
        )
        self.original_bytes = 0
        self.total_lines = 0
        self._pipeline_rate: Optional[float] = None
        #: Simulated system timeline: every ingest/query advances it, so
        #: spans from successive operations line up on one trace.
        self.clock = SimClock()
        #: Optional span tracer; assign one at any time to start tracing.
        self.tracer = tracer
        #: Optional :class:`repro.obs.journal.QueryJournal`; when set,
        #: every direct ``query()`` call appends one record per query
        #: (tenant ``_direct`` — service-layer traffic is journalled by
        #: the service itself, which owns admission context).
        self.journal = journal
        #: Monotonic query counter, minting trace ids (``q1``, ``q2``, ...).
        self._query_seq = 0
        self._m_queries = handle("mithrilog_query_total")
        self._m_query_seconds = handle("mithrilog_query_seconds")
        self._m_ingest_lines = handle("mithrilog_ingest_lines_total")
        self._m_ingest_bytes = handle("mithrilog_ingest_bytes_total")
        self._m_ingest_compressed = handle("mithrilog_ingest_compressed_bytes_total")
        self._m_scan_workers = handle("mithrilog_scan_workers")
        self._m_batch_queries = handle("mithrilog_scan_batch_queries")
        self._m_explain = handle("mithrilog_explain_requests_total")
        self._m_util = handle("mithrilog_util_busy_fraction")
        self._m_sampled_scans = handle("mithrilog_stream_sampled_scans_total")
        self._m_sampled_pages_skipped = handle(
            "mithrilog_stream_sampled_pages_skipped_total"
        )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def ingest(
        self, lines: Sequence[bytes], timestamps: Optional[Sequence[float]] = None
    ) -> IngestReport:
        """Compress, store and index a batch of log lines.

        ``timestamps``, when given (one per line), drive the snapshot
        index for later time-bounded queries.
        """
        if timestamps is not None and len(timestamps) != len(lines):
            raise IngestError("timestamps must align one-to-one with lines")
        compressed_total = 0
        original = 0
        pages = 0
        pos = 0
        postings = 0
        for payload, text, count in self._pack_pages(lines):
            addr = self.device.append_pages([Page(payload)])[0]
            # the tokens of the text the page stores, so the index and
            # the scan paths (which split that text) cannot disagree
            tokens = page_token_set(text)
            pos += count
            stamp = timestamps[pos - 1] if timestamps is not None else None
            self.index.index_page(addr, tokens, timestamp=stamp)
            postings += len(tokens)
            compressed_total += len(payload)
            original += len(text)
            pages += 1
        self.original_bytes += original
        self.total_lines += len(lines)
        self._measure_pipeline_rate(lines)
        cost = IngestCostModel()
        report = IngestReport(
            lines=len(lines),
            original_bytes=original,
            compressed_bytes=compressed_total,
            pages_written=pages,
            index_memory_bytes=self.index.counted_footprint_bytes(),
            postings_inserted=postings,
            storage_time_s=self.params.storage.flash_seconds(compressed_total),
            compress_time_s=original
            / (self.params.num_pipelines * self.params.pipeline.wire_speed_bytes_per_sec),
            host_time_s=cost.host_seconds(len(lines), postings),
        )
        self._m_ingest_lines.inc(report.lines)
        self._m_ingest_bytes.inc(report.original_bytes)
        self._m_ingest_compressed.inc(report.compressed_bytes)
        if self.tracer is not None:
            t0 = self.clock.now
            self.tracer.record(
                "ingest", t0, report.elapsed_s, category="ingest", track="ingest",
                lines=report.lines, pages=report.pages_written,
            )
            self.tracer.record(
                "compress", t0, report.compress_time_s, category="ingest",
                track="compress", bytes=report.original_bytes,
            )
            self.tracer.record(
                "storage_write", t0, report.storage_time_s, category="ingest",
                track="flash", bytes=report.compressed_bytes,
            )
            self.tracer.record(
                "index_build", t0, report.host_time_s, category="ingest",
                track="host", postings=report.postings_inserted,
            )
        self.clock.advance(report.elapsed_s)
        return report

    def _pack_pages(
        self, lines: Sequence[bytes]
    ) -> Iterable[tuple[bytes, bytes, int]]:
        """Pack lines so each chunk's *compressed* form fills one page.

        Greedy with feedback: aim for ``page_bytes x current-ratio`` of
        uncompressed text, compress, and halve the chunk while it misses
        high. A half is a line-aligned prefix, so with newline
        realignment its payload is cut from the encode just done
        (:meth:`LZAHCompressor.cut`) and each page costs one
        ``compress``; without it the half is encoded again. Yields
        ``(payload, text, line count)`` per page: ``text`` is the
        newline-terminated chunk, ``payload`` its compressed form, and
        every payload fits one flash page.
        """
        page_bytes = self.params.storage.page_bytes
        codec = self.codec
        realign = codec.params.newline_realign
        ratio_estimate = 2.0
        i = 0
        n = len(lines)
        while i < n:
            target = max(1, int(page_bytes * ratio_estimate * 0.9))
            chunk: list[bytes] = []
            used = 0
            j = i
            while j < n and (used + len(lines[j]) + 1 <= target or not chunk):
                chunk.append(lines[j])
                used += len(lines[j]) + 1
                j += 1
            text = b"\n".join(chunk) + b"\n"
            payload = codec.compress(text)
            while len(payload) > page_bytes:
                if len(chunk) == 1:
                    raise IngestError(
                        f"single line of {len(chunk[0])} bytes cannot fit a "
                        f"{page_bytes}-byte page even compressed"
                    )
                chunk = chunk[: len(chunk) // 2]
                text = b"\n".join(chunk) + b"\n"
                payload = (
                    codec.cut(payload, text) if realign else codec.compress(text)
                )
            ratio_estimate = 0.5 * ratio_estimate + 0.5 * (len(text) / len(payload))
            yield payload, text, len(chunk)
            i += len(chunk)

    def _measure_pipeline_rate(self, lines: Sequence[bytes]) -> None:
        """Measure the filter engine's capability on this corpus (cycles)."""
        sample = list(lines[:_PERF_SAMPLE_LINES])
        if not sample:
            return
        count = PipelineCycleModel(self.params.pipeline).count_cycles(sample)
        self._pipeline_rate = count.throughput_bytes_per_sec * self.params.num_pipelines
        if get_registry() is not None:
            # publishes the Figure 13 gauges (useful-bits ratio, padding
            # amplification) as a side effect; skipped when metrics are
            # off so ingest pays nothing extra
            measure_tokenized_stats(
                sample, datapath_bytes=self.params.pipeline.datapath_bytes
            )

    @property
    def pipeline_rate(self) -> float:
        """The filter pipelines' rate on this corpus (bytes/s), measured
        by the cycle model at ingest and persisted with the store."""
        if self._pipeline_rate is None:
            raise QueryError("nothing ingested yet; accelerator rate unknown")
        return self._pipeline_rate

    @property
    def decompressor_rate(self) -> float:
        """The decompressors' rate (bytes/s): one word per cycle per
        pipeline (Section 7.3.1)."""
        p = self.params
        return p.num_pipelines * (p.lzah.word_bytes * p.pipeline.clock_hz)

    @property
    def accelerator_rate(self) -> float:
        """Effective decompressed-text consumption rate (bytes/s): the
        slower of the two stages."""
        return min(self.pipeline_rate, self.decompressor_rate)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    def query(
        self,
        *queries: Query,
        use_index: bool = True,
        time_range: Optional[tuple[Optional[float], Optional[float]]] = None,
        limit: Optional[int] = None,
        newest_first: bool = False,
        workers: int = 1,
        analyze: bool = False,
        trace_context: Optional[TraceContext] = None,
        within_pages: Optional[Sequence[int]] = None,
        sample_fraction: Optional[float] = None,
        sample_seed: int = 0,
    ) -> QueryOutcome:
        """Run one or more concurrent queries end to end.

        ``limit`` cancels the device read once that many matching lines
        arrived (top-k exploration: far fewer pages touched on common
        queries); ``newest_first`` visits candidate pages in reverse
        chronological order — the natural direction for log exploration,
        and what Section 6.3's reverse-ordered index traversal hands the
        host for free. With both set, pages are visited newest first but
        each page is still filtered in storage order and the read is
        cancelled at the ``limit``-th match, so the result is every
        match of the newer visited pages plus the *earliest* matches of
        the oldest visited one — ``limit`` matches from the newest pages
        that hold that many, not "the last ``limit`` matches" of the log.

        ``workers`` parallelises the host-side scan work (decompress,
        tokenize, filter) over that many processes via the
        :class:`repro.exec.ScanExecutor`. Results, simulated stats and
        fault behaviour are identical at any worker count — only host
        wall-clock changes; ``workers=1`` (the default) runs fully
        in-process. A ``limit`` runs the same scan kernel in-process,
        fed page by page, because early cancellation is inherently
        sequential.

        ``analyze=True`` runs EXPLAIN ANALYZE alongside: the cost-based
        planner's estimates are captured before execution, and the
        returned outcome carries an :class:`~repro.obs.explain
        .ExplainReport` comparing them against what actually happened.

        ``trace_context`` threads an existing trace id through (a cluster
        scatter-gather passes per-shard children); left ``None``, the
        system mints a fresh ``q<n>`` id for the query's spans.

        ``within_pages`` restricts the scan to the intersection of the
        index candidates and the given page addresses — the incremental
        hook standing queries use to evaluate only newly sealed pages.

        ``sample_fraction`` runs an *approximate* scan: only the seeded
        deterministic fraction of candidate pages (keyed on
        ``(sample_seed, template fingerprint, page id)``, so results are
        worker-count- and kernel-invariant) is read, and the outcome
        carries one :class:`repro.stream.sampling.SampleEstimate` per
        query scaling the sampled count back to the full candidate set
        with a confidence interval.
        """
        run = _Pass(
            queries, use_index=use_index, time_range=time_range, limit=limit,
            newest_first=newest_first, workers=workers, analyze=analyze,
            context=trace_context, within_pages=within_pages,
            sample_fraction=sample_fraction, sample_seed=sample_seed,
        )
        self._begin(run)
        self._select_pages(run)
        self._scan(run)
        self._account(run)
        return self._observe(run)

    def _begin(self, run: _Pass) -> None:
        """Stage 1: validate the options, mint the id, estimate, compile.

        Option errors are :class:`QueryError`s raised here, before
        anything is compiled or read. Writes ``union``, ``context``,
        ``estimate`` (when ``analyze``) and ``stats``.
        """
        if not run.queries:
            raise QueryError("a pass needs at least one query")
        if run.workers < 1:
            raise QueryError("workers must be at least 1")
        if run.limit is not None and run.limit < 1:
            raise QueryError("limit must be positive")
        if run.limit is not None and run.sample_fraction is not None:
            # an estimate scaled up from a count capped at the limit
            # would carry a confidence interval that means nothing
            raise QueryError("limit cannot be combined with sample_fraction")
        self._query_seq += 1
        if run.context is None:
            run.context = TraceContext(trace_id=f"q{self._query_seq}")
        run.union = _union(run.queries)
        if run.analyze:
            # imported lazily: the planner module imports this one
            from repro.system.planner import QueryPlanner

            run.estimate = QueryPlanner(self).plan(run.union)
        offloaded = self.engine.compile(*run.queries)
        run.stats = QueryStats(
            offloaded=offloaded, total_pages=self.index.total_data_pages
        )

    def _select_pages(self, run: _Pass) -> None:
        """Stage 2: the pages to read, in read order.

        Index candidates (or every data page), then the time bound,
        ``within_pages``, the sample draw and the direction — each applied
        to whichever page list came first, so every route agrees. Writes
        ``candidates``, ``sample_pool`` and the index fields of ``stats``.
        """
        stats = run.stats
        if run.use_index:
            lookup = self.index.candidate_pages(run.union)
            pages = lookup.pages
            stats.index_root_visits = lookup.stats.root_visits
            stats.index_tokens_looked_up = lookup.stats.tokens_looked_up
            stats.index_full_scan = lookup.stats.full_scan
            # traversal cost: latency-bound hops through in-storage nodes
            stats.index_time_s = self.index.lookup_seconds(
                lookup.stats, self.params.storage.latency_s
            )
        else:
            pages = self.index.data_pages
            stats.index_full_scan = True
        if run.time_range is not None:
            low, high = self.index.snapshots.page_range_for_time(*run.time_range)
            pages = [p for p in pages if p >= low and (high is None or p < high)]
        if run.within_pages is not None:
            wanted = set(run.within_pages)
            pages = [page for page in pages if page in wanted]
        candidates = list(pages)
        stats.candidate_pages = len(candidates)
        if run.sample_fraction is not None:
            # deterministic subset, chosen in the parent before any
            # executor fan-out — see repro.stream.sampling
            run.sample_pool = len(candidates)
            candidates = sample_pages(
                candidates, run.sample_seed,
                template_fingerprint(str(run.union)), run.sample_fraction,
            )
            stats.sample_fraction = run.sample_fraction
            stats.pages_sampled = len(candidates)
            self._m_sampled_scans.inc()
            self._m_sampled_pages_skipped.inc(run.sample_pool - len(candidates))
        if run.newest_first:
            candidates.reverse()
        run.candidates = candidates

    def _scan(self, run: _Pass) -> None:
        """Stage 3: read and filter the selected pages.

        One scan program either way — the partition kernel under this
        pass's :class:`ScanProgramSpec`. A full scan fetches every page
        and hands them to the executor (any worker count); ``limit=`` is
        the device's cancellable FILTER read, which feeds the same kernel
        page by page and stops pulling at the ``limit``-th match. Writes
        ``matched``, ``per_query``, ``partitions`` and the scan counters.
        """
        stats = run.stats
        self._m_scan_workers.set(run.workers)
        self._m_batch_queries.set(len(run.queries))
        hits_before = self.page_cache.hits
        misses_before = self.page_cache.misses
        spec = self.scan_spec()
        if run.limit is None:
            read = self._scan_with_executor(run, spec)
        else:
            read = self.device.read(
                run.candidates,
                functools.partial(self._scan_pages, run, spec),
                stop_after_matches=run.limit,
            )
        stats.cache_hits = self.page_cache.hits - hits_before
        stats.cache_misses = self.page_cache.misses - misses_before
        stats.pages_read = read.pages_read
        stats.bytes_from_flash = read.bytes_from_flash
        stats.bytes_decompressed = read.bytes_decompressed
        stats.bytes_to_host = read.bytes_to_host
        stats.lines_seen = read.lines_seen
        stats.lines_kept = read.lines_kept
        stats.read_retries = read.read_retries
        run.matched = read.data.splitlines()
        self.engine.account_filtered(stats.lines_seen, stats.lines_kept)

    def scan_spec(self) -> ScanProgramSpec:
        """The scan program of the engine's compiled queries: what a pass
        and the streaming tail (:meth:`StreamingIngestor.query
        <repro.system.streaming.StreamingIngestor.query>`) hand the
        partition kernel. The kernel resolves here, in the parent, so
        every pool worker runs the identical code path."""
        return ScanProgramSpec(
            queries=self.engine.queries,
            cuckoo_params=self.engine.cuckoo_params,
            seed=self.engine.seed,
            offloaded=self.engine.offloaded,
            lzah_params=self.params.lzah,
            kernel=resolve_kernel(self.scan_kernel),
        )

    def _account(self, run: _Pass) -> None:
        """Stage 4: simulated stage times, the deterministic profile and
        the utilization gauges — all derived from ``stats``' counters."""
        self._fill_scan_times(run.stats)
        self._fill_profile(run.stats)
        self._publish_utilization(run.stats)

    def _observe(self, run: _Pass) -> QueryOutcome:
        """Stage 5: tell everyone who listens, then build the outcome.

        Metrics, spans, the simulated clock, sampled estimates, journal,
        EXPLAIN ANALYZE — none of them changes the answer.
        """
        stats = run.stats
        self._m_queries.inc(path="scan" if stats.index_full_scan else "index")
        self._m_query_seconds.observe(stats.elapsed_s)
        if self.tracer is not None:
            self._trace_query(run)
        self.clock.advance(stats.elapsed_s)
        estimates = None
        if run.sample_fraction is not None:
            estimates = [
                estimate_matches(
                    count,
                    pages_scanned=stats.pages_sampled,
                    pages_total=run.sample_pool,
                    fraction=run.sample_fraction,
                )
                for count in run.per_query
            ]
        if self.journal is not None:
            for query_obj, count in zip(run.queries, run.per_query):
                self.journal.observe_direct(
                    str(query_obj),
                    latency_s=stats.elapsed_s,
                    matches=count,
                    stage=stats.bottleneck,
                    completed_at_s=self.clock.now,
                    batch_size=len(run.queries),
                    mode=run.mode,
                    sample_fraction=run.sample_fraction,
                )
        return QueryOutcome(
            matched_lines=run.matched,
            per_query_counts=run.per_query,
            stats=stats,
            explain=self._explain_report(run) if run.analyze else None,
            estimates=estimates,
        )

    def _explain_report(self, run: _Pass) -> ExplainReport:
        """The one report builder: estimates always, actuals when the
        pass was executed (``matched`` is set by the scan stage)."""
        actuals = {}
        if run.matched is not None:
            stats = run.stats
            actuals = {
                "stats": stats,
                "matches": len(run.matched),
                "cache": {"hits": stats.cache_hits, "misses": stats.cache_misses},
                "host_profile": stats.host_profile,
            }
        self._m_explain.inc(mode="analyze" if actuals else "estimate")
        return build_explain(
            " OR ".join(str(q) for q in run.queries),
            run.estimate,
            program=self.engine.program_summary(),
            **actuals,
        )

    def explain(
        self,
        *queries: Query,
        use_index: bool = True,
        time_range: Optional[tuple[Optional[float], Optional[float]]] = None,
        limit: Optional[int] = None,
        newest_first: bool = False,
        workers: int = 1,
        analyze: bool = False,
    ) -> ExplainReport:
        """EXPLAIN (or, with ``analyze=True``, EXPLAIN ANALYZE) a query.

        Plain EXPLAIN touches no storage: it compiles the queries (the
        program shape is part of the plan) and reports the cost-based
        planner's path choice and estimates. ``analyze=True`` executes
        the query exactly as :meth:`query` would — same index/limit/
        worker semantics — and the report's ``actual`` values, bottleneck
        attribution and per-stage utilization come from the run. The
        report's canonical form is deterministic: identical at any
        ``workers`` and with a cold or warm page cache.
        """
        if analyze:
            return self.query(
                *queries,
                use_index=use_index,
                time_range=time_range,
                limit=limit,
                newest_first=newest_first,
                workers=workers,
                analyze=True,
            ).explain
        run = _Pass(queries, analyze=True)
        self._begin(run)
        return self._explain_report(run)

    def _scan_executor_for(self, workers: int) -> ScanExecutor:
        executor = self._scan_executors.get(workers)
        if executor is None:
            executor = ScanExecutor(workers)
            self._scan_executors[workers] = executor
        return executor

    def _kernel_items(
        self, pages: Iterable[tuple[int, Page]], fetched: list
    ) -> Iterator[tuple[bool, bytes]]:
        """Fetched pages as kernel items (a cache hit arrives decoded);
        notes each in ``fetched`` for :meth:`_cache_decoded`."""
        device_key, codec_key = self.device.device_key, self._codec_key
        for address, page in pages:
            payload = page.data
            fetched.append((address, payload))
            cached = self.page_cache.get(device_key, address, codec_key, payload)
            yield (False, payload) if cached is None else (True, cached)

    def _cache_decoded(self, fetched: list, decoded: Sequence) -> None:
        """Feed the kernel's decodes back, so a repeated scan hits."""
        device_key, codec_key = self.device.device_key, self._codec_key
        for (address, payload), text in zip(fetched, decoded):
            if text is not None:
                self.page_cache.put(device_key, address, codec_key, payload, text)

    def _scan_pages(
        self,
        run: _Pass,
        spec: ScanProgramSpec,
        pages: Iterator[tuple[int, Page]],
        stop_after: Optional[int],
    ) -> KernelResult:
        """The device's FILTER program: the partition kernel, fed lazily,
        so a cancelled read never fetches (or faults on) a page behind
        the last match."""
        fetched: list = []
        result = _partition_kernel(
            spec, self._kernel_items(pages, fetched),
            self.page_cache.max_pages > 0, stop_after,
        )
        self._cache_decoded(fetched, result.decoded)
        profile = dict(result.stages)
        merge_into_registry(profile)
        run.stats.host_profile = profile_to_dict(profile)
        run.per_query = list(result.per_query_counts)
        return result

    def _scan_with_executor(
        self, run: _Pass, spec: ScanProgramSpec
    ) -> DeviceReadResult:
        """The full scan: device-fetched pages, fanned-out filtering.

        Flash access (and with it fault injection, retries and read
        accounting) stays in the device, in candidate order. Pages that
        hit the decompressed-page cache skip the decode even in workers;
        the rest are decoded in the pool. The aggregate's per-partition
        profiles are the subprocess work made visible to the parent
        (registry merge happens in the executor; ``partitions``,
        ``per_query`` and ``host_profile`` are written on the pass here).
        """
        candidates, workers = run.candidates, run.workers
        pages, retries = self.device.fetch_pages(candidates)
        fetched: list = []
        items = list(self._kernel_items(zip(candidates, pages), fetched))
        # the inline path hands decoded pages back so repeated scans hit
        # the cache; pool workers keep their decodes local (shipping
        # pages back would dwarf the scan)
        want_decoded = workers == 1 and self.page_cache.max_pages > 0
        aggregate = self._scan_executor_for(workers).scan(spec, items, want_decoded)
        self._cache_decoded(fetched, aggregate.decoded)
        self.device.account_host_bytes(len(aggregate.data))
        if workers > 1:
            # partition spans only describe actual fan-out; the inline
            # path keeps the serial trace shape
            run.partitions = aggregate.partitions
        run.stats.partitions = max(1, len(aggregate.partitions))
        run.stats.host_profile = profile_to_dict(aggregate.profile_dict())
        run.per_query = list(aggregate.per_query_counts)
        return DeviceReadResult(
            data=aggregate.data,
            pages_read=len(pages),
            bytes_from_flash=sum(len(p) for p in pages),
            bytes_decompressed=aggregate.bytes_decompressed,
            bytes_to_host=len(aggregate.data),
            lines_seen=aggregate.lines_seen,
            lines_kept=aggregate.lines_kept,
            read_retries=retries,
        )

    def _fill_scan_times(self, stats: QueryStats) -> None:
        """Streaming pipeline: bottleneck stage sets the pace (Figure 14).

        Candidate page reads are *independent*, so a flash array with
        queued requests streams them at full internal bandwidth after one
        pipeline-fill latency; only the index walk (pointer chasing) pays
        latency per hop, and that is charged by the select stage.

        The accelerator time splits into decompressor and filter stages;
        since ``accelerator_rate == min(pipeline, decompressor)``, the
        identity ``bytes/min(p,d) == max(bytes/p, bytes/d)`` keeps
        ``scan_time_s`` equal to the old three-way max.
        """
        storage = self.params.storage
        stats.flash_time_s = storage.flash_seconds(stats.bytes_from_flash)
        stats.decompress_time_s = stats.bytes_decompressed / self.decompressor_rate
        stats.filter_time_s = stats.bytes_decompressed / self.pipeline_rate
        stats.host_time_s = stats.bytes_to_host / storage.external_bandwidth
        stats.scan_time_s = max(
            stats.flash_time_s,
            stats.decompress_time_s,
            stats.filter_time_s,
            stats.host_time_s,
        )

    def _fill_profile(self, stats: QueryStats) -> None:
        """Synthesize the deterministic per-stage scan counts.

        Derived from the page/byte accounting — which is identical on the
        serial and executor paths — not from measuring either path, so
        the counts match at any worker count. Decompress calls skip cache
        hits (the decode was skipped); the decompressed text still flows
        through tokenize and filter on every page.
        """
        decoded = stats.pages_read - stats.cache_hits
        stats.profile = {
            "decompress": {
                "calls": decoded, "units": stats.bytes_decompressed
            },
            "tokenize": {"calls": stats.pages_read, "units": stats.lines_seen},
            "filter": {"calls": stats.pages_read, "units": stats.lines_seen},
        }

    def _publish_utilization(self, stats: QueryStats) -> None:
        """Set the per-resource busy-fraction gauges for this query.

        The scan stages stream concurrently over one window
        (``scan_time_s``), so each stage's utilization is its time over
        the window — the bottleneck reads 1.0, everything else shows how
        much slack it had (the Figure 14 shape).
        """
        if stats.scan_time_s <= 0:
            return
        for stage, stage_time in stats.breakdown.items():
            if stage == "index":
                continue
            self._m_util.set(
                stage_time / stats.scan_time_s, resource=stage
            )

    def _trace_query(self, run: _Pass) -> None:
        """Record the query's phase spans on the simulated timeline.

        The index traversal is serial; the four scan stages stream
        concurrently, so their spans share a start time and live on
        separate tracks — exactly how the device pipelines them. A
        single query keeps its one ``query`` root span; a batch gets one
        root span *per* query (``query[i]``, carrying that query's match
        count) over the shared stage spans, so per-query latency and
        selectivity stay attributable after batching.

        Every span carries the query's trace-context tags (trace id,
        shard/partition coordinates when set), so spans from one logical
        query stay correlated across cluster shards and executor
        partitions. Executor partitions additionally get their own
        ``scan_partition[i]`` spans on a ``workers`` track, sized by each
        partition's share of the decompress work.
        """
        stats, per_query, context = run.stats, run.per_query, run.context
        tags = context.tags()
        t0 = self.clock.now
        if len(per_query) > 1:
            for i, count in enumerate(per_query):
                self.tracer.record(
                    f"query[{i}]", t0, stats.elapsed_s, category="query",
                    track="query", pages=stats.pages_read, matches=count,
                    batch_index=i, batch_size=len(per_query), **tags,
                )
        else:
            self.tracer.record(
                "query", t0, stats.elapsed_s, category="query", track="query",
                pages=stats.pages_read, matches=len(run.matched), **tags,
            )
        self.tracer.record(
            "index_lookup", t0, stats.index_time_s, category="query",
            track="index", root_visits=stats.index_root_visits,
            full_scan=stats.index_full_scan, **tags,
        )
        t1 = t0 + stats.index_time_s
        self.tracer.record(
            "flash_read", t1, stats.flash_time_s, category="query",
            track="flash", pages=stats.pages_read,
            bytes=stats.bytes_from_flash, **tags,
        )
        self.tracer.record(
            "decompress", t1, stats.decompress_time_s, category="query",
            track="decompress", bytes=stats.bytes_decompressed, **tags,
        )
        self.tracer.record(
            "filter", t1, stats.filter_time_s, category="query",
            track="filter", lines_seen=stats.lines_seen,
            lines_kept=stats.lines_kept, **tags,
        )
        self.tracer.record(
            "host_transfer", t1, stats.host_time_s, category="query",
            track="host", bytes=stats.bytes_to_host, **tags,
        )
        if run.partitions:
            rate = self.decompressor_rate
            for record in run.partitions:
                child = context.child(partition=record.index)
                self.tracer.record(
                    f"scan_partition[{record.index}]", t1,
                    record.bytes_decompressed / rate,
                    category="query", track="workers",
                    pages=record.pages, lines_seen=record.lines_seen,
                    lines_kept=record.lines_kept,
                    **child.tags(),
                )

    # -- convenience -----------------------------------------------------

    def scan_all(
        self, *queries: Query, workers: int = 1, analyze: bool = False
    ) -> QueryOutcome:
        """Whole-store scan (the Section 7.4 token-filter experiments run
        with the index disabled).

        All queries share one decompress+tokenize pass per page — the
        paper's batched-query mode — and ``workers`` fans the scan out
        over a process pool (see :meth:`query`).
        """
        return self.query(
            *queries, use_index=False, workers=workers, analyze=analyze
        )

    def close(self) -> None:
        """Release scan worker pools (idempotent; safe mid-lifecycle —
        executors are recreated lazily on the next parallel query)."""
        for executor in self._scan_executors.values():
            executor.close()
        self._scan_executors.clear()
