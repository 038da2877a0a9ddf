"""The four workloads: what each sets up, and what its timed region does.

Every workload drives the public API only (``MithriLogSystem``,
``JournaledMithriLog``, ``StreamingIngestor``, ``StandingQueryRegistry``,
``QueryService``) with ``workers=1``, from one process. Direct workloads
are closed-loop with one client: the next call starts when the previous
one returned. ``service_stream`` offers open-loop Poisson arrivals on the
*simulated* clock at 0.8x the capacity probed in set-up; on the host
clock it is one ``run()`` window at a time, i.e. closed-loop as well.

A corpus is a ``(dataset, lines, seed)`` spec fed to
``repro.datasets.synthetic.generator_for``; it is never written to disk,
and the program only ever sees the generated lines.

The run's seed picks the corpus, the order of the ops and the arrival
pattern. The template query pool is mined (``query_pool``: FT-tree
singles plus OR-pairs) from a *reference* sample of the same dataset
with a fixed seed, and every pool query is asked equally often: the
templates are a property of the dataset, not of the seed, and a pool
that changed with the seed moved every latency metric by 10-30 % from
seed to seed (a few heavy templates in or out), drowning the 10 %
regressions the bounds are there to catch.

Sizes are calibrated so that the timed region takes about
``NOMINAL_SECONDS`` on the 2-core reference box. ``scale`` shrinks or
grows line and op counts uniformly (with floors that keep tiny smoke
runs meaningful).
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

from oracle import Expected, OpLog, grep_expected
from pilot import burst, speed_factor
from repro.core.query import Query
from repro.core.tokenizer import split_tokens
from repro.datasets.synthetic import generator_for
from repro.obs import metrics as obs_metrics
from repro.service import (
    QueryService,
    estimate_capacity,
    make_tenants,
    open_loop_requests,
    query_pool,
)
from repro.stream.standing import StandingQuery, StandingQueryRegistry
from repro.system.mithrilog import MithriLogSystem
from repro.system.streaming import StreamingIngestor
from repro.system.wal import JournaledMithriLog

#: How long the timed region of every workload takes at ``scale == 1``.
NOMINAL_SECONDS = 10.0

#: Scratch space inside the checkout (store directories, span files).
OUT_DIR = Path(__file__).resolve().parent / ".out"

#: Queries checked line for line against grep, per workload (at least).
ORACLE_QUERIES = 16

#: Seed of the reference samples the template query pools are mined from.
POOL_SEED = 2021


def scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, round(count * scale))


def balanced(pool: Sequence, count: int, rng: random.Random) -> list:
    """``count`` picks that use every pool member equally often, in
    seeded order: back-to-back shuffles of the whole pool."""
    picks: list = []
    while len(picks) < count:
        picks.extend(rng.sample(list(pool), len(pool)))
    return picks[:count]


@dataclass(frozen=True)
class CorpusSpec:
    dataset: str
    lines: int
    seed: int

    def generate(self) -> list[bytes]:
        return generator_for(self.dataset, seed=self.seed).generate(self.lines)


@dataclass
class Prepared:
    """What one set-up hands to the timed region and to the checker."""

    run: Callable[[OpLog], None]  #: the timed region
    corpora: list[CorpusSpec]
    op_counts: dict[str, float]
    corpus: list[bytes]  #: every line, in the order the workload ingests it
    expected: dict[Query, Expected]
    #: queries verify() compares line for line the first time they run
    want_lines: set = field(default_factory=set)
    #: counts seen in set-up, seeding the same-store consistency check
    baseline_counts: dict = field(default_factory=dict)
    #: checks that need calls outside the timed region
    final_check: Optional[Callable[[OpLog], None]] = None
    #: set-up phase wall times: generate_s, query_pool_s, load_s, oracle_s
    timing: dict[str, float] = field(default_factory=dict)
    load_reports: list = field(default_factory=list)  #: set-up bulk load
    #: every MithriLogSystem the workload used (cache/index counters)
    systems: list = field(default_factory=list)
    #: public counters only the workload can reach (wal_bytes, evaluations)
    counters: dict[str, float] = field(default_factory=dict)
    #: traced run only: measures ``obs.registry_overhead_share``
    registry_overhead: Optional[Callable[[], float]] = None


def reference_pool(
    samples: dict[str, int], max_queries: int, num_pairs: int = 8
) -> list[Query]:
    """Template queries mined from fixed-seed samples of the datasets."""
    lines = [
        line
        for dataset, count in samples.items()
        for line in CorpusSpec(dataset, count, POOL_SEED).generate()
    ]
    return query_pool(
        lines, max_queries=max_queries, seed=POOL_SEED, num_pairs=num_pairs
    )


class _Stopwatch:
    """Accumulates named set-up phase times into ``timing``."""

    def __init__(self) -> None:
        self.timing: dict[str, float] = {
            "generate_s": 0.0, "query_pool_s": 0.0, "load_s": 0.0, "oracle_s": 0.0,
        }

    def time(self, phase: str, call: Callable):
        started = time.perf_counter()
        result = call()
        self.timing[phase] += time.perf_counter() - started
        return result


def _bulk_load(
    system: MithriLogSystem, lines: list[bytes], watch: _Stopwatch, batch: int = 10_000
) -> list:
    return watch.time("load_s", lambda: [
        system.ingest(lines[i : i + batch]) for i in range(0, len(lines), batch)
    ])


# ---------------------------------------------------------------------------
# 1. ingest_tail: write-heavy with light reads
# ---------------------------------------------------------------------------


def setup_ingest_tail(seed: int, scale: float) -> Prepared:
    batches = scaled(200, scale, 8)
    per_batch = scaled(450, scale, 40)
    checkpoint_at = batches * 3 // 4
    watch = _Stopwatch()
    specs = [
        CorpusSpec("Liberty2", (batches + 1) // 2 * per_batch, seed),
        CorpusSpec("BGL2", batches // 2 * per_batch, seed),
    ]
    liberty, bgl = watch.time("generate_s", lambda: [s.generate() for s in specs])
    chunks = [
        (bgl if i % 2 else liberty)[i // 2 * per_batch : (i // 2 + 1) * per_batch]
        for i in range(batches)
    ]
    corpus = [line for chunk in chunks for line in chunk]
    # single templates only: OR-pairs of two rare templates make "the last
    # 10 matches" reach back a seed-dependent 20-30 pages, which alone
    # spread query_p95_ms by 30 % from seed to seed
    pool = watch.time("query_pool_s", lambda: reference_pool(
        {"Liberty2": 4000, "BGL2": 4000}, max_queries=ORACLE_QUERIES, num_pairs=0
    ))
    rng = random.Random(seed)
    tail = balanced(pool, batches, rng)
    final = pool[:8]
    expected = watch.time("oracle_s", lambda: grep_expected(pool, corpus))
    systems: list = []
    counters: dict[str, float] = {}

    def run(log: OpLog) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        store_dir = tempfile.mkdtemp(dir=OUT_DIR, prefix="ingest_tail-")
        try:
            journaled = JournaledMithriLog(store_dir, seed=seed)
            systems.append(journaled.system)
            stored = wal_bytes = 0
            for i, chunk in enumerate(chunks):
                log.ingest(lambda: [journaled.ingest(chunk)])
                stored += len(chunk)
                log.query(
                    journaled.query, tail[i], lines_in_store=stored,
                    limit=10, newest_first=True,
                )
                if i + 1 == checkpoint_at:
                    wal_bytes += journaled.wal.size_bytes
                    journaled.checkpoint()
            wal_bytes += journaled.wal.size_bytes
            del journaled  # the crash: only what is on disk survives
            recovered = JournaledMithriLog.recover(store_dir, seed=seed)
            systems.append(recovered.system)
            counters["wal_bytes"] = wal_bytes
            log.check(
                recovered.system.total_lines == len(corpus),
                f"recovered {recovered.system.total_lines} lines, "
                f"ingested {len(corpus)}",
            )
            for query in final:
                log.query(recovered.query, query, lines_in_store=stored,
                          latency=False)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    def registry_overhead() -> float:
        """(on - off) / off over a re-run of the first fifth of the batches.

        Components bind their metric handles at construction, so each
        side ingests into a store built after the registry was switched.
        Each side runs twice, alternating, at reference machine speed;
        the faster run counts (the box only ever slows a run down).
        """
        def ingest_head() -> float:
            store_dir = tempfile.mkdtemp(dir=OUT_DIR, prefix="registry-")
            try:
                journaled = JournaledMithriLog(store_dir, seed=seed)
                pilots = burst()
                started = time.perf_counter()
                for chunk in chunks[: max(1, batches // 5)]:
                    journaled.ingest(chunk)
                raw_s = time.perf_counter() - started
                return raw_s / speed_factor(pilots + burst())
            finally:
                shutil.rmtree(store_dir, ignore_errors=True)

        on, off = [], []
        for _ in range(2):
            on.append(ingest_head())
            registry = obs_metrics.disable()
            try:
                off.append(ingest_head())
            finally:
                obs_metrics.set_registry(registry)
        return (min(on) - min(off)) / min(off)

    return Prepared(
        run=run, corpora=specs, corpus=corpus, expected=expected,
        want_lines=set(final), timing=watch.timing, systems=systems,
        counters=counters, registry_overhead=registry_overhead,
        op_counts={
            "ingest_batches": batches, "lines_per_batch": per_batch,
            "tail_queries": batches, "checkpoint_after_batch": checkpoint_at,
            "recovery_queries": len(final),
        },
    )


# ---------------------------------------------------------------------------
# 2. scan_cold: read-only, cache off
# ---------------------------------------------------------------------------


def setup_scan_cold(seed: int, scale: float) -> Prepared:
    singles = scaled(200, scale, 8)
    passes = scaled(25, scale, 2)
    watch = _Stopwatch()
    spec = CorpusSpec("Liberty2", scaled(3000, scale, 400), seed)
    corpus = watch.time("generate_s", spec.generate)
    pool = watch.time("query_pool_s", lambda: reference_pool(
        {spec.dataset: spec.lines}, max_queries=32
    ))
    system = MithriLogSystem(seed=seed, cache_pages=0)
    reports = _bulk_load(system, corpus, watch)
    expected = watch.time("oracle_s", lambda: grep_expected(pool, corpus))
    rng = random.Random(seed)
    single_ops = balanced(pool, singles, rng)
    width = min(16, len(pool))
    picks = balanced(pool, passes * width, rng)
    batch_ops = [tuple(picks[i * width : (i + 1) * width]) for i in range(passes)]

    def run(log: OpLog) -> None:
        for query in single_ops:
            log.query(system.scan_all, query, lines_in_store=len(corpus))
        for batch in batch_ops:
            log.query(system.scan_all, *batch, lines_in_store=len(corpus),
                      latency=False)

    return Prepared(
        run=run, corpora=[spec], corpus=corpus, expected=expected,
        want_lines=set(pool), timing=watch.timing, load_reports=reports,
        systems=[system],
        op_counts={
            "single_query_scans": singles, "batched_passes": passes,
            "queries_per_batched_pass": width, "cache_pages": 0,
            "data_pages": system.index.total_data_pages,
        },
    )


# ---------------------------------------------------------------------------
# 3. index_warm: read-only, cache fits
# ---------------------------------------------------------------------------


def _rare_token_queries(
    corpus: list[bytes], rng: random.Random, count: int = 64
) -> list[Query]:
    """Single-token queries for tokens found on 3 to 40 lines.

    Rare tokens (pids, addresses) belong to the corpus, so these are
    mined from the seeded corpus itself; picking them evenly along the
    lines-per-token order gives every seed the same selectivity mix.
    """
    on_lines: Counter = Counter()
    for line, times in Counter(corpus).items():
        for token in set(split_tokens(line)):
            on_lines[token] += times
    rare = sorted((n, token) for token, n in on_lines.items() if 3 <= n <= 40)
    count = min(count, len(rare))
    stride = len(rare) / count
    offset = rng.random() * stride
    return [
        Query.single(rare[int(offset + i * stride)][1]) for i in range(count)
    ]


def setup_index_warm(seed: int, scale: float) -> Prepared:
    ops = scaled(2400, scale, 16)
    cache_pages = 4096
    watch = _Stopwatch()
    spec = CorpusSpec("Liberty2", scaled(40_000, scale, 2000), seed)
    corpus = watch.time("generate_s", spec.generate)
    rng = random.Random(seed)
    queries = watch.time("query_pool_s", lambda: _rare_token_queries(corpus, rng))
    system = MithriLogSystem(seed=seed, cache_pages=cache_pages)
    reports = _bulk_load(system, corpus, watch)
    # one pass over every query fills the cache (working set << cache)
    baseline = {q: system.query(q).per_query_counts[0] for q in queries}
    sample = rng.sample(queries, min(ORACLE_QUERIES, len(queries)))
    expected = watch.time("oracle_s", lambda: grep_expected(sample, corpus))
    op_queries = balanced(queries, ops, rng)

    def run(log: OpLog) -> None:
        for query in op_queries:
            log.query(system.query, query, lines_in_store=len(corpus))

    return Prepared(
        run=run, corpora=[spec], corpus=corpus, expected=expected,
        want_lines=set(sample), baseline_counts=baseline, timing=watch.timing,
        load_reports=reports, systems=[system],
        op_counts={
            "queries": ops, "distinct_queries": len(queries),
            "cache_pages": cache_pages,
            "data_pages": system.index.total_data_pages,
        },
    )


# ---------------------------------------------------------------------------
# 4. service_stream: mixed reads and writes
# ---------------------------------------------------------------------------


class _ReportingSystem(MithriLogSystem):
    """Keeps the ``IngestReport`` that ``StreamingIngestor.flush`` drops."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.reports: list = []

    def ingest(self, lines, timestamps=None):
        report = super().ingest(lines, timestamps=timestamps)
        self.reports.append(report)
        return report


def setup_service_stream(seed: int, scale: float) -> Prepared:
    rounds = scaled(200, scale, 6)
    per_window, per_flush, max_batch, load_factor = 6, 64, 8, 0.8
    watch = _Stopwatch()
    initial_lines = scaled(4000, scale, 600)
    spec = CorpusSpec("Liberty2", initial_lines + rounds * per_flush, seed)
    corpus = watch.time("generate_s", spec.generate)
    system = _ReportingSystem(seed=seed)
    _bulk_load(system, corpus[:initial_lines], watch)
    pool = watch.time("query_pool_s", lambda: reference_pool(
        {spec.dataset: initial_lines}, max_queries=32
    ))
    tenants = make_tenants(4)

    def new_service() -> QueryService:
        return QueryService(system, tenants, max_batch=max_batch)

    capacity = estimate_capacity(new_service, pool, tenants, seed=seed)
    offered = load_factor * capacity
    needed = rounds * per_window
    duration = 1.25 * needed / offered
    requests = open_loop_requests(pool, tenants, offered, duration, seed=seed)
    while len(requests) < needed:  # a short Poisson draw: extend the horizon
        duration *= 2
        requests = open_loop_requests(pool, tenants, offered, duration, seed=seed)
    # arrivals, tenants and priorities are the generator's; the queries
    # are re-dealt so that every pool query is asked equally often
    rng = random.Random(seed)
    asked = balanced(pool, needed, rng)
    windows = []
    for r in range(rounds):
        span = range(r * per_window, (r + 1) * per_window)
        origin = requests[span[0]].arrival_s
        windows.append([
            replace(requests[i], query=asked[i],
                    arrival_s=requests[i].arrival_s - origin)
            for i in span
        ])

    service = new_service()
    ingestor = StreamingIngestor(system, batch_lines=per_flush)
    registry = StandingQueryRegistry(system)
    standing = pool[:8]
    for i, query in enumerate(standing):
        registry.register(StandingQuery(f"standing{i}", query))
    registry.attach(ingestor)
    expected = watch.time("oracle_s", lambda: grep_expected(pool, corpus))
    sample = rng.sample(pool, min(ORACLE_QUERIES, len(pool)))
    load_reports = list(system.reports)
    counters: dict[str, float] = {}

    def feed(lines: list[bytes]) -> list:
        mark = len(system.reports)
        ingestor.extend(lines)
        ingestor.flush()
        return system.reports[mark:]

    def run(log: OpLog) -> None:
        stored = initial_lines
        for window in windows:
            log.service(service, window, stored)
            new_lines = corpus[stored : stored + per_flush]
            log.ingest(lambda: feed(new_lines))
            stored += per_flush
        counters["stream_evaluations"] = registry.evaluations

    def final_check(log: OpLog) -> None:
        # the service only reports counts; the line-for-line comparison
        # runs here, on the store as the stream left it
        log.check(
            registry.evaluations == rounds * len(standing),
            f"{registry.evaluations} standing evaluations, "
            f"expected {rounds * len(standing)}",
        )
        for query in sample:
            log.query(system.query, query, lines_in_store=len(corpus))

    return Prepared(
        run=run, corpora=[spec], corpus=corpus, expected=expected,
        want_lines=set(sample), final_check=final_check, timing=watch.timing,
        load_reports=load_reports, systems=[system], counters=counters,
        op_counts={
            "rounds": rounds, "requests_per_window": per_window,
            "lines_per_flush": per_flush, "standing_queries": len(standing),
            "tenants": len(tenants), "max_batch": max_batch,
            "offered_load_x_capacity": load_factor,
            "probed_capacity_sim_qps": capacity,
        },
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, float], Prepared]


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "ingest_tail",
        "write-heavy: LZAH compress, index insert, WAL/flash write and the per-call "
        "perf-model sample do most of the work; its tail queries are the only ops on the "
        "limit= device path",
        setup_ingest_tail,
    ),
    Workload(
        "scan_cold",
        "read-only, cache off: fetch, LZAH decode, tokenize, filter are the whole cost; "
        "index, cache and service are bypassed; 1-vs-16 queries per pass",
        setup_scan_cold,
    ),
    Workload(
        "index_warm",
        "read-only, cache fits: compile, index probe, cache hit, filter of a few pages "
        "and host merge dominate; LZAH decode is bypassed",
        setup_index_warm,
    ),
    Workload(
        "service_stream",
        "mixed: admission, QoS packing, settle, standing-query passes and "
        "write-invalidated caching only appear here; catches read gains paid for by writes",
        setup_service_stream,
    ),
)
