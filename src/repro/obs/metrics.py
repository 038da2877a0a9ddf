"""Zero-dependency metrics primitives: counters, gauges, histograms.

The paper's whole evaluation (Figures 13-16, Tables 5-8) rests on
internal counters — useful-bit ratios, per-stage cycle counts, pages
read, retries absorbed. This module gives every layer of the stack one
uniform way to publish those numbers:

- :class:`Counter` — monotonically increasing totals (pages read,
  faults injected),
- :class:`Gauge` — point-in-time values (useful-bits ratio, index
  memory footprint),
- :class:`Histogram` — distributions over fixed buckets (per-shard
  query latency).

All three support Prometheus-style labels and are thread-safe. A
:class:`MetricsRegistry` owns metrics by name with get-or-create
semantics, so two components naming the same counter share it.

Every ``mithrilog_*`` family is declared once, in
:data:`repro.obs.families.FAMILIES`. Instrumented components follow one
pattern: at *construction* they bind each family with :func:`handle`,
and on the hot path they call the handle unconditionally::

    self._m_reads = handle("mithrilog_storage_device_reads_total")
    ...
    self._m_reads.inc()

:func:`handle` returns the active registry's metric, or the shared
no-op :data:`NULL` when metrics are disabled, so there is no enabled /
disabled fork at a publishing site: an argument passed to a handle must
cost no more than the work its method already did. The one comparison
against :data:`NULL` outside this module is the index probe's footprint
gauge, whose value walks every hash row. A few publishers have no
construction to bind at and resolve the registry *per call* instead:
``measure_tokenized_stats``, ``PipelineCycleModel.count_cycles`` and
``merge_into_registry`` publish to whichever registry is active when
they run, not when the system that calls them was built.

The registry is **default-on** (a process-wide default registry) and
**nullable**: :func:`disable` turns the handle off, :func:`enable` turns
it back on, and :func:`use_registry` scopes a fresh registry to a block
(what the tests and benchmarks use for isolation).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Mapping, Optional, Sequence

from repro.obs.families import FAMILIES

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricError",
    "DEFAULT_BUCKETS",
    "NULL",
    "handle",
    "get_registry",
    "set_registry",
    "enable",
    "disable",
    "use_registry",
]


class MetricError(ValueError):
    """Misuse of the metrics API (name clash, bad labels)."""


#: Default histogram buckets, tuned for *simulated seconds*: query and
#: shard latencies in this reproduction live in the µs..s range.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, float("inf"),
)


def _label_key(
    labelnames: tuple[str, ...], labels: Mapping[str, str], metric: str
) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise MetricError(
            f"metric {metric!r} takes labels {sorted(labelnames)}, "
            f"got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Metric:
    """Shared machinery: name, help text, label schema, locked values."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._values: dict[tuple[str, ...], float] = {}

    def _key(self, labels: Mapping[str, str]) -> tuple[str, ...]:
        if not labels and not self.labelnames:
            return ()
        return _label_key(self.labelnames, labels, self.name)

    def value(self, **labels: str) -> float:
        """Current value for one label combination (0.0 if never touched)."""
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def samples(self) -> list[tuple[dict[str, str], float]]:
        """All (labels, value) pairs, sorted by label values."""
        with self._lock:
            items = sorted(self._values.items())
        return [
            (dict(zip(self.labelnames, key)), value) for key, value in items
        ]


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Metric):
    """A value that can go up and down (or be set outright)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)


def _bucket_edges(name: str, buckets: Sequence[float]) -> tuple[float, ...]:
    """Sorted bucket edges, always closed by ``+Inf``."""
    edges = tuple(sorted(float(b) for b in buckets))
    if not edges:
        raise MetricError(f"histogram {name} needs at least one bucket")
    if edges[-1] != float("inf"):
        edges = edges + (float("inf"),)
    return edges


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        self.buckets = _bucket_edges(name, buckets)
        # per label key: [bucket counts...] + observation sum + count
        self._series: dict[tuple[str, ...], list[float]] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = [0.0] * (len(self.buckets) + 2)
                self._series[key] = series
            for i, edge in enumerate(self.buckets):
                if value <= edge:
                    series[i] += 1.0
            series[-2] += value
            series[-1] += 1.0
            self._values[key] = series[-1]  # keep .value() meaningful: count

    def series(self) -> list[tuple[dict[str, str], list[float], float, float]]:
        """All (labels, cumulative bucket counts, sum, count) tuples."""
        with self._lock:
            items = sorted(self._series.items())
        return [
            (
                dict(zip(self.labelnames, key)),
                list(s[: len(self.buckets)]),
                s[-2],
                s[-1],
            )
            for key, s in items
        ]


class MetricsRegistry:
    """Named metrics with get-or-create semantics.

    Creation is idempotent: asking twice for the same name returns the
    same object, so independently constructed components share totals.
    Asking for an existing name with a different kind, label schema or
    histogram buckets is a programming error and raises
    :class:`MetricError`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise MetricError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise MetricError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}"
                    )
                if "buckets" in kwargs and existing.buckets != _bucket_edges(
                    name, kwargs["buckets"]
                ):
                    raise MetricError(
                        f"metric {name!r} already registered with buckets "
                        f"{existing.buckets}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def collect(self) -> list[_Metric]:
        """All registered metrics, sorted by name."""
        with self._lock:
            return [self._metrics[n] for n in sorted(self._metrics)]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)


# ---------------------------------------------------------------------------
# The process-wide handle: default-on, nullable.
# ---------------------------------------------------------------------------

_default_registry = MetricsRegistry()
_active: Optional[MetricsRegistry] = _default_registry
_active_lock = threading.Lock()


def get_registry() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` when metrics are disabled."""
    return _active


def set_registry(registry: Optional[MetricsRegistry]) -> Optional[MetricsRegistry]:
    """Swap the active registry (``None`` disables); returns the old one."""
    global _active
    with _active_lock:
        old = _active
        _active = registry
    return old


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Re-enable metrics; with no argument, the process default registry."""
    target = registry if registry is not None else _default_registry
    set_registry(target)
    return target


def disable() -> Optional[MetricsRegistry]:
    """Disable metrics collection; returns the registry that was active."""
    return set_registry(None)


@contextmanager
def use_registry(
    registry: Optional[MetricsRegistry],
) -> Iterator[Optional[MetricsRegistry]]:
    """Scope ``registry`` (or ``None``) to a ``with`` block.

    Components constructed inside the block bind to it; the previous
    registry is restored on exit. This is how tests isolate counters.
    """
    old = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(old)


class _NullHandle:
    """What :func:`handle` binds when metrics are disabled: every call a no-op."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        pass

    dec = set = observe = inc


#: The one shared no-op handle.
NULL = _NullHandle()


def handle(name: str, registry: Optional[MetricsRegistry] = None):
    """Bind the family ``name`` from :data:`repro.obs.families.FAMILIES`.

    Returns the metric in ``registry`` (default: the active registry),
    created from the table row on first use, or :data:`NULL` when metrics
    are disabled. A name the table does not declare raises
    :class:`MetricError`.
    """
    family = FAMILIES.get(name)
    if family is None:
        raise MetricError(f"metric family {name!r} is not in repro.obs.families")
    registry = registry if registry is not None else _active
    if registry is None:
        return NULL
    return getattr(registry, family.kind)(name, family.help, family.labelnames)
