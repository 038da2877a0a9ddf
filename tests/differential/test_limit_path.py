"""Differential tests for ``limit=`` reads.

A ``limit=`` query is the device's cancellable FILTER read, and its
FILTER program is the partition kernel fed page by page with an early
stop. What that replaced — a second, line-at-a-time engine inside
``MithriLogDevice.read`` (decompress a page, ``splitlines``, one
predicate call per line, ``break`` at the k-th kept line) — lives on
here as the oracle, :func:`per_line_read`. Everything a caller can see
of a limit read must equal it: the lines, the per-query counts, the
seven scan counters, the deterministic stage profile and the simulated
scan time — on either kernel, either route (hardware program or
software fallback), any cache state and under a seeded fault schedule.
"""

import functools
import operator
from types import SimpleNamespace

import pytest

from repro.compression.lzah import LZAHCompressor
from repro.core.backend import numpy_or_none
from repro.core.query import parse_query
from repro.datasets.synthetic import generator_for
from repro.faults import BernoulliSchedule, inject_page_faults
from repro.system.mithrilog import MithriLogSystem

LINES = generator_for("Liberty2", seed=11).generate(2500)
#: the same corpus with carriage returns inside some lines: the stored
#: page text then splits into more lines than were ingested, on either
#: kernel
CR_LINES = [
    line.replace(b" ", b"\r", 1) if i % 97 == 5 else line
    for i, line in enumerate(LINES)
]
ONE = [parse_query("session AND opened")]
THREE = [parse_query(text) for text in (
    "session AND opened", "kernel:", "user AND NOT session",
)]
#: more one-set queries than the hardware program holds: software route
OVERSIZE = [parse_query(text) for text in (
    "session AND opened", "session AND closed", "user AND NOT session",
    "kernel:", "nfs: AND server", "authentication AND failure;", "operator",
    "nosuchtoken", "Accepted AND password", "pbs_mom: AND task",
    "Did AND NOT root", "hpcuser",
)]

KERNELS = ["reference"] + (["vectorized"] if numpy_or_none() is not None else [])


def build(lines=LINES, **kwargs):
    system = MithriLogSystem(seed=3, **kwargs)
    for start in range(0, len(lines), 500):
        system.ingest(lines[start:start + 500])
    return system


def per_line_read(system, queries, limit, newest_first=False, use_index=True,
                  read_page=None):
    """The deleted device loop: pages in read order, lines one at a time."""
    union = functools.reduce(operator.or_, queries)
    pages = list(
        system.index.candidate_pages(union).pages if use_index
        else system.index.data_pages
    )
    if newest_first:
        pages.reverse()
    if read_page is None:
        def read_page(address):
            return system.device.flash.read_page(address), 0
    codec = LZAHCompressor(system.params.lzah)
    kept, counts = [], [0] * len(queries)
    seen = SimpleNamespace(pages=0, flash=0, decompressed=0, lines=0, retries=0)
    for address in pages:
        page, retries = read_page(address)
        seen.retries += retries
        seen.pages += 1
        seen.flash += len(page)
        text = codec.decompress(page.data)
        seen.decompressed += len(text)
        for line in text.splitlines():
            seen.lines += 1
            verdict = [query.matches_line(line) for query in queries]
            if any(verdict):
                kept.append(line)
                counts = [c + hit for c, hit in zip(counts, verdict)]
                if len(kept) == limit:
                    break
        if len(kept) == limit:
            break
    return kept, counts, seen


def assert_matches_oracle(system, queries, limit, expected=None, **options):
    expected = expected or per_line_read(system, queries, limit, **options)
    kept, counts, seen = expected
    outcome = system.query(*queries, limit=limit, **options)
    stats = outcome.stats
    assert outcome.matched_lines == kept
    assert outcome.per_query_counts == counts
    assert stats.pages_read == seen.pages
    assert stats.bytes_from_flash == seen.flash
    assert stats.bytes_decompressed == seen.decompressed
    assert stats.bytes_to_host == sum(len(line) + 1 for line in kept)
    assert stats.lines_seen == seen.lines
    assert stats.lines_kept == len(kept)
    assert stats.read_retries == seen.retries
    assert stats.cache_hits + stats.cache_misses == seen.pages
    assert stats.profile == {
        "decompress": {
            "calls": seen.pages - stats.cache_hits, "units": seen.decompressed,
        },
        "tokenize": {"calls": seen.pages, "units": seen.lines},
        "filter": {"calls": seen.pages, "units": seen.lines},
    }
    storage = system.params.storage
    assert stats.scan_time_s == max(
        storage.latency_s + seen.flash / storage.internal_bandwidth,
        seen.decompressed / system.decompressor_rate,
        seen.decompressed / system.pipeline_rate,
        stats.bytes_to_host / storage.external_bandwidth,
    )
    return outcome


def limits_for(system, queries, **options):
    """1, exactly a page's worth, one into the next page, past every match."""
    total = len(per_line_read(system, queries, None, **options)[0])

    def pages_read(limit):
        return per_line_read(system, queries, limit, **options)[2].pages

    # every kept line of the first page that keeps any: cancelling there
    # stops on that page's last match, one more stops inside a later page
    page_worth = 1
    while page_worth < total and pages_read(page_worth + 1) == pages_read(1):
        page_worth += 1
    return sorted({1, page_worth, page_worth + 1, total + 5})


@pytest.fixture(scope="module", params=KERNELS)
def system(request):
    return build(scan_kernel=request.param, cache_pages=0)


@pytest.mark.parametrize("use_index", [True, False])
@pytest.mark.parametrize("newest_first", [False, True])
@pytest.mark.parametrize("queries", [ONE, THREE], ids=["one", "three"])
def test_limit_read_equals_the_per_line_loop(
    system, queries, newest_first, use_index
):
    options = dict(newest_first=newest_first, use_index=use_index)
    limits = limits_for(system, queries, **options)
    assert len(limits) >= 3
    for limit in limits:
        outcome = assert_matches_oracle(system, queries, limit, **options)
        assert outcome.stats.offloaded
    # past every match nothing is cancelled: it is the full scan
    full = system.query(*queries, **options)
    assert outcome.matched_lines == full.matched_lines
    assert outcome.per_query_counts == full.per_query_counts
    assert outcome.stats.lines_seen == full.stats.lines_seen


def test_a_cancelled_page_counts_the_lines_up_to_its_last_match(system):
    # the lines behind the k-th match are neither kept, counted nor seen
    kept, counts, seen = per_line_read(system, THREE, 3, use_index=False)
    outcome = assert_matches_oracle(system, THREE, 3, use_index=False)
    whole = system.query(
        *THREE, use_index=False,
        within_pages=system.index.data_pages[:seen.pages],
    )
    assert outcome.stats.lines_seen < whole.stats.lines_seen
    assert sum(outcome.per_query_counts) < sum(whole.per_query_counts)
    assert outcome.stats.bytes_decompressed == whole.stats.bytes_decompressed


def test_software_route(system):
    for limit in (1, 7, 10_000):
        outcome = assert_matches_oracle(system, OVERSIZE, limit)
        assert not outcome.stats.offloaded


@pytest.mark.parametrize("kernel", KERNELS)
def test_carriage_return_lines(kernel):
    system = build(CR_LINES, scan_kernel=kernel, cache_pages=0)
    for queries in (ONE, THREE):
        for limit in limits_for(system, queries, use_index=False):
            assert_matches_oracle(system, queries, limit, use_index=False)
    # the split is the stored text's, not the ingested lines'
    everything = system.query(parse_query("NOT nosuchtoken"), use_index=False)
    assert everything.stats.lines_seen > len(CR_LINES)


@pytest.mark.parametrize("kernel", KERNELS)
def test_host_profile_reads_per_page(kernel):
    system = build(scan_kernel=kernel, cache_pages=0)
    stats = assert_matches_oracle(system, THREE, 40, use_index=False).stats
    assert {
        stage: entry["calls"] for stage, entry in stats.host_profile.items()
    } == {"decompress": stats.pages_read, "tokenize": stats.pages_read,
          "filter": stats.pages_read}
    assert stats.host_profile["decompress"]["units"] == stats.bytes_decompressed
    # the cancelled page was tokenized whole
    assert stats.host_profile["tokenize"]["units"] > stats.lines_seen


@pytest.mark.parametrize("kernel", KERNELS)
def test_cache_off_cold_and_warm(kernel):
    off = build(scan_kernel=kernel, cache_pages=0)
    stats = assert_matches_oracle(off, THREE, 60, use_index=False).stats
    assert (stats.cache_hits, stats.cache_misses) == (0, stats.pages_read)
    assert len(off.page_cache) == 0

    cached = build(scan_kernel=kernel, cache_pages=10_000)
    cold = assert_matches_oracle(cached, THREE, 60, use_index=False).stats
    assert (cold.cache_hits, cold.cache_misses) == (0, cold.pages_read)
    assert len(cached.page_cache) == cold.pages_read  # the last page too
    warm = assert_matches_oracle(cached, THREE, 60, use_index=False).stats
    assert (warm.cache_hits, warm.cache_misses) == (warm.pages_read, 0)
    assert warm.profile["decompress"]["calls"] == 0
    assert "decompress" not in warm.host_profile  # a warm repeat decodes nothing
    # a longer read hits what the shorter one decoded and decodes the rest
    longer = assert_matches_oracle(cached, THREE, 400, use_index=False).stats
    assert longer.pages_read > warm.pages_read
    assert longer.cache_hits == warm.pages_read
    # and a full scan afterwards finds every page a limit read decoded
    assert cached.query(*THREE, use_index=False).stats.cache_hits == longer.pages_read


@pytest.mark.parametrize("kernel", KERNELS)
def test_seeded_read_errors(kernel):
    """Same retries and same fault log as a twin driven page by page."""
    system, twin = (build(scan_kernel=kernel, cache_pages=0) for _ in range(2))
    logs = [
        inject_page_faults(
            target, read_errors=BernoulliSchedule(0.2, seed=13), seed=5
        )
        for target in (system, twin)
    ]
    for limit, newest_first in ((1, False), (25, True), (120, False), (10_000, True)):
        expected = per_line_read(
            twin, THREE, limit, newest_first=newest_first, use_index=False,
            read_page=twin.device._read_one_with_retry,
        )
        assert_matches_oracle(
            system, THREE, limit, expected=expected,
            newest_first=newest_first, use_index=False,
        )
        assert logs[0].events == logs[1].events
    assert len(logs[0].events) > 3  # the schedule did fire
