"""Boundary table and span tracer for the traced (per-layer) run.

The traced run times calls that cross a layer boundary *from the
outside*: every row of :data:`BOUNDARIES` names one public callable of
``src/repro``, and :class:`Tracer` swaps a timing wrapper in for it
while the workload's timed region runs. Nothing inside ``src/`` is
edited; the wrappers are installed for the traced run only and removed
right after it, and the end-to-end (untraced) metrics never touch this
module.

Granularity is per call or per page, never per line or per token: the
busiest boundary (``tokenize``/``filter``) fires once per scanned page.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

#: ``(args, kwargs, result) -> number or tuple of numbers``: the work one
#: call did, read off its arguments or its public result object.
#: ``args[0]`` is ``self`` for methods.
Units = Callable[[tuple, dict, Any], Any]


@dataclass(frozen=True)
class Boundary:
    """One wrapped layer boundary.

    ``owner`` is ``"package.module"`` or ``"package.module:Class"``.
    Classes are patched rather than instances, so every object of the
    class is covered, including the codec the scan kernel memoises for
    itself. A module row names the namespace the caller looks the
    function up in at call time.
    """

    name: str
    layer: str
    owner: str
    attr: str
    units: Optional[Units] = None


def _query_units(args: tuple, kwargs: dict, outcome: Any) -> tuple:
    """What one ``system.query`` did, read off its ``QueryStats``.

    Column order is ``metrics.Q_*``. Covers every query, including the
    ones the service and the standing registry issue internally.
    """
    stats = outcome.stats
    indexed = kwargs.get("use_index", True)
    return (
        len(args) - 1,  # (self, *queries)
        stats.total_pages if indexed else 0,
        stats.index_root_visits,
        stats.pages_read,
        stats.cache_hits,
        stats.cache_misses,
        stats.read_retries,
    )


def _ingest_units(_args: tuple, _kwargs: dict, report: Any) -> tuple:
    """One ``IngestReport``; column order is ``metrics.I_*``."""
    return (report.original_bytes, report.pages_written, report.postings_inserted)


BOUNDARIES: tuple[Boundary, ...] = (
    # compression
    Boundary("compress", "compression", "repro.compression.lzah:LZAHCompressor",
             "compress", lambda a, k, r: len(a[1])),
    Boundary("decompress", "compression", "repro.compression.lzah:LZAHCompressor",
             "decompress", lambda a, k, r: len(r)),
    Boundary("decompress_into", "compression",
             "repro.compression.lzah:LZAHCompressor", "decompress_into",
             lambda a, k, r: len(r)),
    # core: the vectorized kernel imports the tokenizer at call time
    Boundary("tokenize", "core", "repro.core.vectokenizer",
             "tokenize_page_offsets", lambda a, k, r: r.num_lines),
    Boundary("filter_hash", "core", "repro.core.hashfilter:HashFilter",
             "evaluate_token_arrays", lambda a, k, r: a[1].num_lines),
    Boundary("filter_soft", "core", "repro.core.softmatch:SoftwareBatchMatcher",
             "evaluate", lambda a, k, r: a[1].num_lines),
    Boundary("compile", "core", "repro.core.engine:TokenFilterEngine",
             "compile", lambda a, k, r: int(bool(r))),
    # index
    Boundary("index_page", "index", "repro.index.inverted:InvertedIndex",
             "index_page"),
    Boundary("candidate_pages", "index", "repro.index.inverted:InvertedIndex",
             "candidate_pages", lambda a, k, r: len(r.pages)),
    Boundary("index_flush", "index", "repro.index.inverted:InvertedIndex",
             "flush"),
    # storage
    Boundary("append_pages", "storage", "repro.storage.device:MithriLogDevice",
             "append_pages", lambda a, k, r: len(r)),
    Boundary("fetch_pages", "storage", "repro.storage.device:MithriLogDevice",
             "fetch_pages", lambda a, k, r: len(r[0])),
    Boundary("device_read", "storage", "repro.storage.device:MithriLogDevice",
             "read", lambda a, k, r: r.pages_read),
    # exec
    Boundary("scan", "exec", "repro.exec.executor:ScanExecutor", "scan",
             lambda a, k, r: len(a[1].queries)),
    # system
    Boundary("system.ingest", "system", "repro.system.mithrilog:MithriLogSystem",
             "ingest", _ingest_units),
    Boundary("system.query", "system", "repro.system.mithrilog:MithriLogSystem",
             "query", _query_units),
    Boundary("wal_append", "system", "repro.system.wal:WriteAheadLog", "append"),
    Boundary("checkpoint", "system", "repro.system.wal:JournaledMithriLog",
             "checkpoint"),
    Boundary("recover", "system", "repro.system.wal:JournaledMithriLog",
             "recover"),
    Boundary("stream_flush", "system",
             "repro.system.streaming:StreamingIngestor", "flush",
             lambda a, k, r: r),
    # hw: ingest() samples the cycle model on every call; mithrilog binds
    # measure_tokenized_stats by name at import, so that is the namespace
    # the call resolves in
    Boundary("perf_cycles", "hw", "repro.hw.perf:PipelineCycleModel",
             "count_cycles", lambda a, k, r: len(a[1])),
    Boundary("perf_tokenized", "hw", "repro.system.mithrilog",
             "measure_tokenized_stats"),
    # service
    Boundary("service.run", "service", "repro.service.service:QueryService",
             "run", lambda a, k, r: len(r.responses)),
    # stream
    Boundary("evaluate_new_pages", "stream",
             "repro.stream.standing:StandingQueryRegistry",
             "evaluate_new_pages", lambda a, k, r: r),
)

#: Column order of one span row (``parent`` is a row index, -1 = none).
SPAN_COLUMNS = ("name", "layer", "start", "end", "parent", "op_id", "units")


class UnresolvedBoundary(LookupError):
    """A metric asked for a boundary the table could not install."""


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """In-memory span recorder; spans of one op share its ``op_id``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = -1
        self.unresolved: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any, bool]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name, layer, units = boundary.name, boundary.layer, boundary.units

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    self.op_id, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if units is not None:
                span[6] = units(args, kwargs, result)
            return result

        return traced

    def install(self, boundaries: Sequence[Boundary] = BOUNDARIES) -> None:
        """Swap a timing wrapper in for every boundary that resolves.

        A row whose owner or attribute is gone (renamed or deleted by a
        later refactor) lands in :attr:`unresolved`; metrics built on it
        then read ``null``, never zero.
        """
        for boundary in boundaries:
            try:
                owner = _resolve(boundary.owner)
                raw = inspect.getattr_static(owner, boundary.attr)
            except (ImportError, AttributeError):
                self.unresolved.append(boundary.name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(boundary, raw.__func__))
            else:
                wrapped = self._wrap(boundary, raw)
            self._installed.append(
                (owner, boundary.attr, raw, boundary.attr in vars(owner))
            )
            setattr(owner, boundary.attr, wrapped)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw, own = self._installed.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- reading -----------------------------------------------------------

    def summary(self, speed: float = 1.0) -> "TraceSummary":
        return TraceSummary(self.spans, self.unresolved, speed)

    def to_payload(self, origin: float) -> dict:
        """The span file: raw host seconds since the timed region began."""
        rows = [
            [s[0], s[1], s[2] - origin, s[3] - origin, s[4], s[5], s[6]]
            for s in self.spans
        ]
        return {
            "columns": list(SPAN_COLUMNS),
            "spans": rows,
            "unresolved_boundaries": list(self.unresolved),
        }


class TraceSummary:
    """Per-boundary totals: ``busy`` is the span sum, ``self`` is busy
    minus the part covered by child spans. Times are divided by
    ``speed``, the run's machine-speed factor (see pilot.py)."""

    def __init__(
        self, spans: Sequence[Sequence], unresolved: Sequence[str], speed: float = 1.0
    ) -> None:
        self.unresolved = frozenset(unresolved)
        child = [0.0] * len(spans)
        for span in spans:
            if span[4] >= 0:
                child[span[4]] += (span[3] - span[2]) / speed
        self._spans: dict[str, list[tuple[float, float, Any]]] = {}
        self.top_level_s = 0.0
        for index, span in enumerate(spans):
            duration = (span[3] - span[2]) / speed
            self._spans.setdefault(span[0], []).append(
                (duration, duration - child[index], span[6])
            )
            if span[4] < 0:
                self.top_level_s += duration

    def _of(self, names: tuple[str, ...]) -> list[tuple[float, float, Any]]:
        missing = self.unresolved.intersection(names)
        if missing:
            raise UnresolvedBoundary(sorted(missing)[0])
        return [row for name in names for row in self._spans.get(name, ())]

    def calls(self, *names: str) -> int:
        return len(self._of(names))

    def busy(self, *names: str) -> float:
        return sum(row[0] for row in self._of(names))

    def self_s(self, *names: str) -> float:
        return sum(row[1] for row in self._of(names))

    def units(self, *names: str, col: Optional[int] = None) -> float:
        """Summed units; ``col`` picks a column of tuple-valued units."""
        rows = self._of(names)
        if col is None:
            return sum(row[2] for row in rows)
        return sum(row[2][col] for row in rows)

    def durations(self, name: str) -> list[tuple[float, Any]]:
        """``(duration_s, units)`` of every span of one boundary."""
        return [(row[0], row[2]) for row in self._of((name,))]

    def min_self_s(self) -> float:
        rows = [row[1] for spans in self._spans.values() for row in spans]
        return min(rows, default=0.0)
