"""Differential tests for the numpy kernel's page runs.

The vectorized partition kernel decodes, tokenizes and filters *runs* of
consecutive pages (``executor._RUN_BYTES`` of text each) where the
reference kernel works page by page; a ``limit=`` read takes runs of one
page. The reference kernel is the oracle. Whatever a run is made of —
pages with or without a trailing newline, empty pages, a ``\\r`` page
anywhere in it, cache hits between misses, a last page past the cap —
the kept lines, the per-query counts, the scan counters and the stage
``calls``/``units`` must be the per-page kernel's, at any worker count,
on either route, for one query or sixteen. A run is one tokenize, one
filter and one tally on the numpy stages whatever its pages carry: the
numpy kernel never calls a reference stage. So must a failure: a corrupt
page inside a run raises the per-page error and files nothing, and a
cancelled read pulls no page behind the one that cancelled it.
"""

import tracemalloc

import pytest

from repro.compression.lzah import LZAHCompressor
from repro.core.backend import numpy_or_none
from repro.core.hashfilter import HashFilter
from repro.datasets.synthetic import generator_for
from repro.errors import CompressedFormatError
from repro.exec import executor
from repro.exec.executor import ScanExecutor, ScanProgramSpec, _partition_kernel
from repro.faults import BernoulliSchedule, inject_page_faults
from repro.params import CuckooParams, LZAHParams
from repro.service import query_pool
from repro.storage.page import Page
from repro.system import mithrilog
from repro.system.mithrilog import MithriLogSystem

pytestmark = pytest.mark.skipif(
    numpy_or_none() is None, reason="page runs are the numpy kernel's"
)

LINES = generator_for("Liberty2", seed=11).generate(2500)
#: mined template queries: the first compiles to the hardware program,
#: sixteen exceed it and run on the software route
POOL = query_pool(LINES, max_queries=32, seed=2021, num_pairs=8)
ONE, SIXTEEN = tuple(POOL[:1]), tuple(POOL[:16])
#: 86-line pages, the size the ingest path packs (~11 KB)
PAGES = [
    b"".join(line + b"\n" for line in LINES[i : i + 86]) for i in range(0, 1720, 86)
]
CR_PAGE = b"session opened\r\nadmin opened\rsvc x ERR\r\n\rsession closed\n" * 15
SHAPES = {
    # pages with and without a trailing newline, and empty pages
    "newline-or-not": [
        PAGES[0], PAGES[1].rstrip(b"\n"), b"", PAGES[2], b"", b"", PAGES[3][:-1],
        b"lone line without newline", b"\n", PAGES[4],
    ],
    "cr-first": [CR_PAGE] + PAGES[:5],
    "cr-middle": PAGES[:2] + [CR_PAGE, b"\rlone\r"] + PAGES[2:5],
    "cr-last": PAGES[:4] + [CR_PAGE.rstrip(b"\n")],
    "all-cr": [CR_PAGE, b"x\r", b"\ny session\r"],
    # \r pages between \n-only ones, one of them ending in a lone \r
    "cr-mixed": [
        b"session opened for root\nsvc up ERR\nnoise line\n" * 20,
        CR_PAGE,
        b"svc a ERR b\nopened by admin\nsession session\n" * 20,
        b"lone\rcarriage\rreturns session\r",
    ],
    "many-runs": PAGES,
}


def _spec(queries, offloaded, kernel):
    return ScanProgramSpec(
        queries=tuple(queries), cuckoo_params=CuckooParams(), seed=0,
        offloaded=offloaded, lzah_params=LZAHParams(), kernel=kernel,
    )


def _items(pages, hits=()):
    """Kernel items: pages at the indices in ``hits`` arrive decoded."""
    codec = LZAHCompressor()
    return [
        (True, page) if i in hits else (False, codec.compress(page))
        for i, page in enumerate(pages)
    ]


def _counts(stages) -> dict:
    return {name: (s["calls"], s["units"]) for name, s in stages.items()}


def _assert_same_result(run, page) -> None:
    assert run.data == page.data
    assert run.per_query_counts == page.per_query_counts
    assert run.lines_seen == page.lines_seen
    assert run.lines_kept == page.lines_kept
    assert run.bytes_decompressed == page.bytes_decompressed
    assert run.decoded == page.decoded
    assert _counts(run.stages) == _counts(page.stages)


@pytest.fixture
def decode_calls(monkeypatch):
    """How many streams each bulk decode call was handed."""
    calls = []
    raw = LZAHCompressor.decompress_into

    def counted(self, *streams):
        calls.append(len(streams))
        return raw(self, *streams)

    monkeypatch.setattr(LZAHCompressor, "decompress_into", counted)
    return calls


# ---------------------------------------------------------------------------
# the kernel: every run shape against the per-page oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize(
    "queries, offloaded",
    [(ONE, True), (ONE, False), (SIXTEEN, False)],
    ids=["one-offloaded", "one-software", "sixteen-software"],
)
@pytest.mark.parametrize("hits", [(), (0, 2, 3, 7)], ids=["cold", "hits-between"])
def test_runs_equal_the_per_page_kernel(shape, queries, offloaded, hits, decode_calls):
    items = _items(SHAPES[shape], hits)
    reference = _partition_kernel(_spec(queries, offloaded, "reference"), items, True)
    runs = _partition_kernel(_spec(queries, offloaded, "vectorized"), items, True)
    _assert_same_result(runs, reference)
    misses = sum(not is_decoded for is_decoded, _ in items)
    assert sum(decode_calls) == misses
    if shape == "many-runs" and not hits:
        assert 1 < len(decode_calls) < misses  # runs, and more than one


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("offloaded", [True, False], ids=["offloaded", "software"])
def test_the_numpy_kernel_calls_no_reference_stage(monkeypatch, shape, offloaded):
    """Every shape, ``\\r`` pages included, on the numpy stages alone: the
    reference tokenizer, the token-list filter and the tuple tally raise
    if called, and the result is still the reference kernel's."""
    queries = ONE if offloaded else SIXTEEN
    items = _items(SHAPES[shape])
    reference = _partition_kernel(_spec(queries, offloaded, "reference"), items, True)

    def detour(*_args, **_kwargs):
        raise AssertionError("the numpy kernel called a reference stage")

    monkeypatch.setattr(executor, "tokenize_page", detour)
    monkeypatch.setattr(HashFilter, "evaluate_token_lists", detour)
    monkeypatch.setattr(executor, "_tally_tuples", detour)
    with ScanExecutor(1) as scans:
        scanned = scans.scan(_spec(queries, offloaded, "vectorized"), items, True)
    assert scanned.data == reference.data
    assert scanned.per_query_counts == reference.per_query_counts
    assert (scanned.lines_seen, scanned.lines_kept, scanned.bytes_decompressed) == (
        reference.lines_seen, reference.lines_kept, reference.bytes_decompressed
    )
    assert scanned.lines_seen == sum(len(page.splitlines()) for page in SHAPES[shape])
    assert scanned.decoded == reference.decoded
    assert _counts(scanned.stages) == _counts(reference.stages)


@pytest.mark.parametrize(
    "run_bytes", [0, 1, 11_000, 11_500, 25_000, 1 << 30],
    ids=["zero", "one-byte", "under-a-page", "over-a-page", "straddle", "unbounded"],
)
def test_any_cap_equals_the_per_page_kernel(monkeypatch, run_bytes, decode_calls):
    """Runs close on the page that reaches the cap, wherever it falls."""
    monkeypatch.setattr(executor, "_RUN_BYTES", run_bytes)
    items = _items(SHAPES["newline-or-not"] + PAGES[5:12], hits=(3, 11))
    for queries, offloaded in ((ONE, True), (SIXTEEN, False)):
        reference = _partition_kernel(_spec(queries, offloaded, "reference"), items, True)
        runs = _partition_kernel(_spec(queries, offloaded, "vectorized"), items, True)
        _assert_same_result(runs, reference)
    per_call = decode_calls[: len(decode_calls) // 2]
    if run_bytes == 0:
        assert set(per_call) == {1}
    if run_bytes == 1 << 30:
        assert len(per_call) == 1


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_workers_see_the_same_runs(workers):
    items = _items(PAGES[:13] + [CR_PAGE] + PAGES[13:], hits=(4, 5))
    for queries, offloaded in ((ONE, True), (SIXTEEN, False)):
        with ScanExecutor(workers) as scans:
            reference, runs = (
                scans.scan(_spec(queries, offloaded, kernel), items)
                for kernel in ("reference", "vectorized")
            )
        assert runs.data == reference.data
        assert runs.per_query_counts == reference.per_query_counts
        assert (runs.lines_seen, runs.lines_kept, runs.bytes_decompressed) == (
            reference.lines_seen, reference.lines_kept, reference.bytes_decompressed
        )
        assert _counts(runs.stages) == _counts(reference.stages)
        assert [_counts(p.stages) for p in runs.partitions] == [
            _counts(p.stages) for p in reference.partitions
        ]


# ---------------------------------------------------------------------------
# the system: scans through query() on both kernels
# ---------------------------------------------------------------------------

#: the seven scan counters a kernel decides
COUNTERS = (
    "pages_read", "bytes_decompressed", "bytes_to_host", "lines_seen",
    "lines_kept", "cache_hits", "cache_misses",
)


def _build(kernel, lines=LINES, **kwargs):
    system = MithriLogSystem(seed=3, scan_kernel=kernel, **kwargs)
    for start in range(0, len(lines), 500):
        system.ingest(lines[start : start + 500])
    return system


def _observed(outcome) -> tuple:
    stats = outcome.stats
    return (
        outcome.matched_lines,
        outcome.per_query_counts,
        tuple(getattr(stats, name) for name in COUNTERS),
        {stage: (e["calls"], e["units"]) for stage, e in stats.host_profile.items()},
    )


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_system_scans_equal_the_reference_kernel(workers, monkeypatch):
    """Cold, then with every third page cached (hits between misses),
    for one query and sixteen; a few pages carry ``\\r`` (stored with
    ingest's line check off, as a store saved before it can hold them)."""
    monkeypatch.setattr(mithrilog, "check_lines", lambda lines: None)
    cr_lines = [
        line.replace(b" ", b"\r", 1) if i % 211 == 5 else line
        for i, line in enumerate(LINES)
    ]
    observed = []
    for kernel in ("reference", "vectorized"):  # one worker pool at a time
        system = _build(kernel, cr_lines, cache_pages=10_000)
        every_third = system.index.data_pages[::3]
        seen = []
        try:
            for queries in (ONE, SIXTEEN):
                system.page_cache.clear()
                seen.append(_observed(system.query(*queries, use_index=False, workers=workers)))
                system.page_cache.clear()
                system.query(*queries, within_pages=every_third, use_index=False)
                seen.append(_observed(system.query(*queries, use_index=False, workers=workers)))
        finally:
            system.close()
        observed.append(seen)
    assert observed[1] == observed[0]
    cache_hits, pages_read = observed[0][1][2][5], observed[0][1][2][0]
    assert 0 < cache_hits < pages_read


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------


def _lying_length(stream: bytes) -> bytes:
    declared = int.from_bytes(stream[0:4], "little")
    return (declared + 1).to_bytes(4, "little") + stream[4:]


def test_corrupt_page_inside_a_run_raises_the_per_page_error(decode_calls):
    items = _items(PAGES[:9])
    items[2] = (False, _lying_length(items[2][1]))
    raised = []
    for kernel in ("reference", "vectorized"):
        with pytest.raises(CompressedFormatError) as error:
            _partition_kernel(_spec(ONE, True, kernel), items, True)
        raised.append((type(error.value), str(error.value)))
    assert raised[0] == raised[1]
    assert "declared" in raised[0][1]
    assert decode_calls[0] > 2  # the bad stream was inside a run


def test_corrupt_page_in_a_system_scan_files_nothing():
    """Same error, an empty cache and the same fault log as the reference
    kernel, under a seeded read-error schedule."""
    outcomes = []
    for kernel in ("reference", "vectorized"):
        system = _build(kernel, cache_pages=10_000)
        log = inject_page_faults(
            system, read_errors=BernoulliSchedule(0.2, seed=13), seed=5
        )
        address = system.index.data_pages[2]
        flash = system.device.flash
        stream = flash._pages[address].data
        flash.write_page(address, Page(_lying_length(stream)))
        with pytest.raises(CompressedFormatError) as error:
            system.query(*ONE, use_index=False)
        outcomes.append(
            (str(error.value), len(system.page_cache), list(log.events))
        )
        system.close()
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == 0
    assert outcomes[0][2]  # the schedule did fire


@pytest.mark.parametrize("stop_after", [1, 5, 40])
def test_a_limit_read_pulls_no_page_behind_the_cancelling_one(stop_after, decode_calls):
    items = _items(PAGES)
    results, pulled = [], []
    for kernel in ("reference", "vectorized"):
        seen = []

        def lazy():
            for item in items:
                seen.append(item)
                yield item

        results.append(_partition_kernel(_spec(ONE, True, kernel), lazy(), True, stop_after))
        pulled.append(len(seen))
    _assert_same_result(results[1], results[0])
    assert results[0].lines_kept == stop_after
    assert pulled[0] == pulled[1] == len(results[0].decoded) < len(items)
    assert set(decode_calls) == {1}  # one page per run


# ---------------------------------------------------------------------------
# memory: a run's transient arrays are bounded by the cap
# ---------------------------------------------------------------------------


def test_one_run_keeps_its_transients_small():
    """What the cap is for. A run's temporaries grow with its length,
    and with them the process's peak RSS: for this template 0.33 MB a
    page at a time, 1.0 MB at 32 KB a run, 1.3 MB at 48 KB, 1.4 MB at
    64 KB, 6.9 MB for the 35 pages in one run."""
    if tracemalloc.is_tracing():
        pytest.skip("something else is tracing allocations")
    lines = generator_for("Liberty2", seed=1).generate(3010)
    items = _items(
        [b"".join(ln + b"\n" for ln in lines[i : i + 86]) for i in range(0, 3010, 86)]
    )
    spec = _spec(ONE, True, "vectorized")
    _partition_kernel(spec, items)  # numpy's own first-call set-up
    tracemalloc.start()
    try:
        _partition_kernel(spec, items)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
