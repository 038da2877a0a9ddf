"""Parallel scan executor: one storage pass, many queries, many cores.

The paper's batched-query experiment (Table 6) keeps effective
throughput flat as the query count grows because the accelerator
evaluates every registered query in the same pass over the decompressed
stream. This module is the host-simulation counterpart: a
:class:`ScanExecutor` takes the candidate pages of a scan, partitions
them, and fans the CPU-heavy work — LZAH decode, tokenization, filter
evaluation for *all* queries at once — out over a process pool, while
flash reads, fault injection, retry accounting and simulated timing stay
in the calling process, in page order.

The partition kernel is one loop over *runs* of consecutive pages and
five *stage callables* (decode, tokenize, evaluate, tally, line bytes),
with two equivalence-tested stage sets, selected by
:class:`ScanProgramSpec.kernel`; a kernel runs its own set alone:

- ``vectorized`` — the numpy hot path. A run holds ~``_RUN_BYTES`` of
  page text, so numpy's fixed per-call cost is paid once per run, not
  once per page: the run's cache misses bulk-decode in one call
  (:meth:`~repro.compression.lzah.LZAHCompressor.decompress_into`), its
  pages' texts are joined and tokenized into one set of offset arrays
  (``repro.core.vectokenizer``), and the filter is one call of the
  exact fact-matrix evaluator (``repro.core.factmatrix``), reached
  through :meth:`~repro.core.hashfilter.HashFilter
  .evaluate_token_arrays` for offloaded programs and
  :class:`~repro.core.softmatch.SoftwareBatchMatcher` for programs that
  exceeded hardware provisioning and run in software.
- ``reference`` — the per-page token-list path (runs of one page),
  retained as the oracle the differential suite compares against and as
  the kernel of hosts without numpy.

Before a run is tokenized, a pass of at most ``_PRECHECK_SETS``
intersection sets looks for each set's ``_PRECHECK_TOKENS`` longest
positive tokens in each page's text (the literal pre-check): a page
where every set misses a token holds no line that can match, so it is
neither tokenized nor filtered, and only its line count is added to
``lines_seen``.

Stage ``calls`` count pages and ``units`` bytes or lines on both, so
the host profile does not depend on the kernel or the run size:
``filter`` counts every page and line the kernel decided, by the filter
or by the pre-check, ``tokenize`` the pages and lines it tokenized.

What a scan did is one record, :class:`KernelResult`: the kernel returns
one per partition, and :meth:`ScanExecutor.scan` returns their sum, with
the partitions' own results, in page order, as its ``partitions``. Its
``stages`` is the plain stage-profile dict of :mod:`repro.obs.profile`.

Determinism is by construction: ``workers=1`` runs the very same
partition kernel inline (no pool, no processes), partitions are
contiguous slices of the candidate list, and results are concatenated in
partition order. A seeded fault schedule therefore sees the identical
read sequence at any worker count. The device's cancellable FILTER read
(``limit=``) is the same kernel fed page by page with ``stop_after`` set
(runs of one page, so it pulls no page behind the one that cancels it),
so a full scan and a limit read agree byte for byte by construction.

Only host wall-clock changes. Simulated stage times and ``hw/perf``
cycle accounting are functions of byte counts that this module
reproduces exactly.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from repro.core.hashfilter import HashFilter, compiled_program, memoized
from repro.core.query import Query
from repro.core.softmatch import SoftwareBatchMatcher
from repro.core.tokenizer import tokenize_page
from repro.errors import QueryError
from repro.obs.profile import add_stage, merge_into_registry, merge_profiles
from repro.params import CuckooParams, LZAHParams


@dataclass(frozen=True)
class ScanProgramSpec:
    """Everything a worker needs to rebuild the scan program.

    Workers rebuild the query program from first principles
    (:func:`repro.core.hashfilter.compiled_program` is deterministic in
    ``(queries, params, seed)``), so nothing stateful crosses the process
    boundary — only frozen parameter dataclasses, query algebra, and the
    resolved kernel name. The parent resolves ``kernel`` (environment,
    numpy availability) *before* building the spec so every pool worker
    runs the same code path even if its own environment would resolve
    differently.
    """

    queries: tuple[Query, ...]
    cuckoo_params: CuckooParams
    seed: int
    offloaded: bool
    lzah_params: LZAHParams
    kernel: str = "reference"


@dataclass(frozen=True)
class KernelResult:
    """What a scan, or one partition of it, did (picklable — crosses the
    pool boundary).

    ``stages`` is the host stage profile, ``{stage: {"calls", "units",
    "wall_s"}}`` (see :mod:`repro.obs.profile`). ``per_query_counts`` is
    the number of kept lines per concurrent query. ``decoded`` is only
    populated when the caller asked for the decoded pages back (one
    ``bytes`` per page, ``None`` for pages that arrived decoded), so the
    parent can feed its PageCache without a second decompression pass.
    A whole scan's result from :meth:`ScanExecutor.scan` holds its
    partitions' results, in page order, in ``partitions``.
    """

    data: bytes  #: concatenated per-page FILTER output (kept lines)
    pages: int
    bytes_decompressed: int
    lines_seen: int
    lines_kept: int
    per_query_counts: tuple[int, ...]
    stages: dict
    decoded: tuple = ()
    partitions: tuple["KernelResult", ...] = ()


#: Per-process memo of the numpy kernel's ``SoftwareBatchMatcher``s by
#: query tuple, for programs that exceeded hardware provisioning
#: (offloaded programs come from ``hashfilter.compiled_program``).
_MATCHER_MEMO: dict = {}

#: Per-process memo of LZAH codecs by parameter bundle.
_CODEC_MEMO: dict = {}

#: Page text per run of the numpy kernel (4–5 pages of 11 KB). Longer
#: runs pay numpy's fixed per-call cost less often, but their transient
#: arrays grow with them (~1 MB at this size for one template, ~7 MB for
#: 35 pages) and with them the process's peak RSS; the sweep that chose
#: it is in ``docs/PERFORMANCE.md``, "Page runs".
_RUN_BYTES = 48 * 1024

#: Most intersection sets a pass may hold for the kernel to look for
#: their positive tokens in a page's text before tokenizing it (the
#: literal pre-check, :func:`_literal_sets`). A pass of a few sets
#: skips most pages for a few substring searches each; a batched pass
#: (~20 sets for 16 template queries) would search for every set's
#: tokens and rule out few pages, so it goes straight to the tokenizer.
#: The sweep that chose it is in ``docs/PERFORMANCE.md``, "Literal
#: pre-check".
_PRECHECK_SETS = 8

#: Most positive tokens of a set the pre-check looks for, the longest
#: ones: a page an index probe selected usually holds every token of a
#: set, and searching a subset keeps the check sound (a page missing one
#: of them holds no match) at a bounded cost per page.
_PRECHECK_TOKENS = 3


def _codec(spec: ScanProgramSpec):
    from repro.compression.lzah import LZAHCompressor

    return memoized(
        _CODEC_MEMO, spec.lzah_params, lambda: LZAHCompressor(spec.lzah_params)
    )


def _filter_program(spec: ScanProgramSpec):
    """The pass's ``CompiledQuery`` (the engine's own), else its matcher."""
    if spec.offloaded:
        return compiled_program(spec.queries, spec.cuckoo_params, spec.seed)
    return memoized(
        _MATCHER_MEMO, spec.queries, lambda: SoftwareBatchMatcher(spec.queries)
    )


def _tally_tuples(verdicts, counts: list[int], budget=None) -> list[int]:
    """Kept line indices of one page's verdict tuples; bumps ``counts``.
    Stops at the ``budget``-th kept line: later ones are not counted."""
    kept = []
    for i, verdict in enumerate(verdicts):
        if True in verdict:
            kept.append(i)
            for q, hit in enumerate(verdict):
                if hit:
                    counts[q] += 1
            if len(kept) == budget:
                break
    return kept


def _tally_matrix(verdicts, counts: list[int], budget=None) -> list[int]:
    """:func:`_tally_tuples` over a ``(lines × queries)`` boolean array."""
    kept = verdicts.any(axis=1).nonzero()[0].tolist()[:budget]
    if kept:
        # rows past the last kept one are all-False or past the budget
        seen = verdicts[: kept[-1] + 1]
        for q, hits in enumerate(seen.sum(axis=0).tolist()):
            counts[q] += hits
    return kept


def _reference_stages(spec: ScanProgramSpec) -> tuple:
    """``(decode, tokenize, evaluate, tally, line_bytes)``, reference kernel.

    A page is the ``(raw_lines, token_lists)`` pair of
    :func:`~repro.core.tokenizer.tokenize_page`.
    """
    if spec.offloaded:
        verdicts_of = HashFilter(_filter_program(spec)).evaluate_token_lists
    else:
        queries = spec.queries

        def verdicts_of(token_lists):
            return [
                tuple(q.matches_tokens(tokens) for q in queries)
                for tokens in token_lists
            ]

    return (
        _codec(spec).decompress,
        tokenize_page,
        lambda page: verdicts_of(page[1]),
        _tally_tuples,
        lambda page, i: page[0][i],
    )


def _vectorized_stages(spec: ScanProgramSpec) -> tuple:
    """``(decode, tokenize, evaluate, tally, line_bytes)``, numpy kernel.

    ``decode`` takes a run's streams at once; a page is a
    :class:`~repro.core.vectokenizer.PageTokens` over a run's text.
    """
    from repro.core.vectokenizer import PageTokens, tokenize_page_offsets

    program = _filter_program(spec)
    return (
        _codec(spec).decompress_into,
        tokenize_page_offsets,
        HashFilter(program).evaluate_token_arrays
        if spec.offloaded
        else program.evaluate,
        _tally_matrix,
        PageTokens.line_bytes,
    )


def _literal_sets(queries: Sequence[Query]) -> Optional[tuple]:
    """Each intersection set's :data:`_PRECHECK_TOKENS` longest distinct
    positive tokens, longest first, when the pass is small enough to
    pre-check (:data:`_PRECHECK_SETS`);
    ``None`` when it is not, or when a set has no positive term (a
    pure negation can match a line holding none of the query's tokens).
    """
    sets = [iset for query in queries for iset in query.intersections]
    if len(sets) > _PRECHECK_SETS or not all(iset.positives for iset in sets):
        return None
    longest_first = [
        sorted({t.token for t in iset.positives}, key=lambda t: (-len(t), t))
        for iset in sets
    ]
    return tuple(tuple(tokens[:_PRECHECK_TOKENS]) for tokens in longest_first)


def _may_match(text: bytes, literal_sets: tuple) -> bool:
    """False when every set has a positive token that is no substring of
    ``text``: then no line of it can match, since a term's token holds
    no delimiter and no line end. Stops at a set's first absent token."""
    return any(all(token in text for token in tokens) for tokens in literal_sets)


def _line_count(text: bytes) -> int:
    """``len(text.splitlines())``, the tokenizers' line count, without
    building the lines when ``text`` carries no ``\\r``."""
    if b"\r" in text:
        return len(text.splitlines())
    return text.count(b"\n") + (bool(text) and not text.endswith(b"\n"))


def _runs(items, run_bytes: int, declared_length) -> Iterator[list]:
    """``items`` in runs of consecutive pages: a run closes once its text
    reaches ``run_bytes`` (a miss counts the length its stream declares).
    ``run_bytes=0`` gives runs of one page, and pulls no item ahead of
    the one being scanned."""
    run, size = [], 0
    for item in items:
        run.append(item)
        is_decoded, payload = item
        size += len(payload) if is_decoded else declared_length(payload)
        if size >= run_bytes:
            yield run
            run, size = [], 0
    if run:
        yield run


def _split(text: bytes, streams: list, declared_length) -> list[bytes]:
    """One run decode's output back into its pages' texts (each stream's
    length was verified against its declaration)."""
    if len(streams) == 1:
        return [text]
    pages, at = [], 0
    for stream in streams:
        end = at + declared_length(stream)
        pages.append(text[at:end])
        at = end
    return pages


def _run_text(pages: list[bytes]) -> bytes:
    """The pages' texts joined so that ``splitlines`` yields each page's
    lines in turn: a non-empty page lacking a trailing ``\\n`` gets one
    (after a trailing ``\\r``, the two are one ``\\r\\n`` terminator)."""
    if len(pages) == 1:
        return pages[0]
    return b"".join(
        page if not page or page.endswith(b"\n") else page + b"\n" for page in pages
    )


def _partition_kernel(
    spec: ScanProgramSpec,
    items: Iterable[tuple[bool, bytes]],
    want_decoded: bool = False,
    stop_after: Optional[int] = None,
) -> KernelResult:
    """Scan one contiguous partition of pages.

    ``items`` yields ``(is_decoded, payload)`` pairs in page order: cache
    hits arrive already decoded, misses arrive compressed and are decoded
    here (this is the work the fan-out parallelises). The returned
    :class:`KernelResult` carries the per-page FILTER output and
    per-stage host accounting — the record that makes subprocess work
    visible to the parent's registry and tracer (pool workers' own
    metrics die with the pool).

    The numpy kernel works on **runs** of consecutive pages, about
    :data:`_RUN_BYTES` of text each: one decode call for the run's
    cache misses, then one tokenize, one filter and one tally over the
    text (:func:`_run_text`) of the run's pages that the literal
    pre-check (:func:`_may_match`) keeps; a run it rules out whole is
    neither tokenized nor filtered. Stage ``calls`` still count pages.

    ``stop_after`` is the cancellable read (``limit=``): the page whose
    kept lines reach it contributes only the lines up to that match —
    kept, counted per query and *seen* — and no further item is pulled,
    so a lazy ``items`` never fetches the pages behind it. Such a read,
    like the reference kernel, takes runs of one page.

    Both kernels run this one loop, so output, counts and stage
    calls/units cannot depend on the kernel; only wall-clock does.
    Module-level and argument-picklable so it runs identically inline
    and in a pool worker.
    """
    stages = _vectorized_stages if spec.kernel == "vectorized" else _reference_stages
    decode, tokenize, evaluate, tally, line_bytes = stages(spec)
    # the reference kernel is the per-page oracle, and a cancellable read
    # pulls, faults and stops page by page: both take runs of one page
    run_bytes = _RUN_BYTES if spec.kernel == "vectorized" and stop_after is None else 0
    declared_length = _codec(spec).declared_length
    literal_sets = _literal_sets(spec.queries)

    stages: dict = {}
    clock = time.perf_counter
    out_chunks: list[bytes] = []
    decoded_pages: list = []
    counts = [0] * len(spec.queries)
    pages = 0
    bytes_decompressed = 0
    lines_seen = 0
    lines_kept = 0
    for run in _runs(items, run_bytes, declared_length):
        misses = [payload for is_decoded, payload in run if not is_decoded]
        if misses:
            t0 = clock()
            text = decode(*misses)
            add_stage(stages, "decompress", len(misses), len(text), clock() - t0)
            fresh = iter(_split(text, misses, declared_length))
        # cache hits arrive decoded: their decode was skipped upstream
        texts = [payload if is_decoded else next(fresh) for is_decoded, payload in run]
        if want_decoded:
            decoded_pages.extend(
                None if is_decoded else page_text
                for (is_decoded, _), page_text in zip(run, texts)
            )
        pages += len(texts)
        bytes_decompressed += sum(map(len, texts))
        t0 = clock()
        live, ruled_out = texts, 0  # ruled_out: lines the pre-check decided
        if literal_sets is not None:
            live = []
            for text in texts:
                if _may_match(text, literal_sets):
                    live.append(text)
                else:
                    ruled_out += _line_count(text)
            lines_seen += ruled_out
        if not live:
            add_stage(stages, "filter", len(texts), ruled_out, clock() - t0)
            continue
        t1 = clock()
        page = tokenize(_run_text(live))
        t2 = clock()
        verdicts = evaluate(page)
        budget = None if stop_after is None else stop_after - lines_kept
        rows = tally(verdicts, counts, budget)
        kept = [line_bytes(page, i) for i in rows]
        num_lines = len(verdicts)
        add_stage(stages, "tokenize", len(live), num_lines, t2 - t1)
        add_stage(
            stages, "filter", len(texts), num_lines + ruled_out,
            (t1 - t0) + (clock() - t2),
        )
        lines_kept += len(kept)
        out_chunks.append(b"\n".join(kept) + (b"\n" if kept else b""))
        if len(rows) == budget:  # cancelled
            lines_seen += rows[-1] + 1
            break
        lines_seen += num_lines
    return KernelResult(
        data=b"".join(out_chunks),
        pages=pages,
        bytes_decompressed=bytes_decompressed,
        lines_seen=lines_seen,
        lines_kept=lines_kept,
        per_query_counts=tuple(counts),
        stages=dict(sorted(stages.items())),
        decoded=tuple(decoded_pages) if want_decoded else (),
    )


class ScanExecutor:
    """Partitions a scan's pages and runs the partition kernel on them.

    ``workers == 1`` is the deterministic in-process fallback: the kernel
    runs inline in the calling process and no pool is ever created, so
    anything the caller keeps deterministic (seeded fault schedules,
    sim-clock traces) stays bit-identical. ``workers > 1`` lazily spins
    up a :class:`~concurrent.futures.ProcessPoolExecutor` that is reused
    across scans until :meth:`close`.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise QueryError("scan executor needs at least one worker")
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- lifecycle -------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ScanExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scanning --------------------------------------------------------

    def scan(
        self,
        spec: ScanProgramSpec,
        items: Sequence[tuple[bool, bytes]],
        want_decoded: bool = False,
    ) -> KernelResult:
        """Run the filter scan over ``items`` (page order preserved).

        Partitions are contiguous slices. Their results, in partition
        order, are the returned result's ``partitions``, and it is their
        sum: data concatenated, counters summed, stages merged. A worker
        failure (e.g. a corrupt page's
        :class:`repro.errors.CompressedFormatError`) propagates to the
        caller exactly as the inline path would raise it.
        ``want_decoded`` is honoured on the inline path only — on the
        pool path the decoded pages stay in the workers (shipping them
        back would dwarf the scan itself).
        """
        if self.workers == 1 or len(items) <= 1:
            results = [_partition_kernel(spec, items, want_decoded)]
        else:
            pool = self._ensure_pool()
            futures = [
                pool.submit(_partition_kernel, spec, items[start:stop])
                for start, stop in _partition_slices(len(items), self.workers)
            ]
            results = [future.result() for future in futures]  # partition order
        stages = merge_profiles(r.stages for r in results)
        # pool workers' registries died with their processes; fold every
        # partition's accounting into the parent's, where it is scraped
        merge_into_registry(stages)
        return KernelResult(
            data=b"".join(r.data for r in results),
            pages=sum(r.pages for r in results),
            bytes_decompressed=sum(r.bytes_decompressed for r in results),
            lines_seen=sum(r.lines_seen for r in results),
            lines_kept=sum(r.lines_kept for r in results),
            per_query_counts=tuple(
                map(sum, zip(*(r.per_query_counts for r in results)))
            ),
            stages=stages,
            decoded=tuple(page for r in results for page in r.decoded),
            partitions=tuple(results),
        )


def _partition_slices(n: int, workers: int) -> list[tuple[int, int]]:
    """Split ``n`` items into at most ``workers`` contiguous balanced slices."""
    if n <= 0:
        return []
    parts = min(workers, n)
    base, extra = divmod(n, parts)
    slices = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        slices.append((start, start + size))
        start += size
    return slices
