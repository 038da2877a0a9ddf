"""Template-aware admission hints: the mined workload fed back in.

The loop the workload-observability layer closes: a journal records
what every template *cost*, :mod:`repro.analytics.workload` mines it,
and this module turns the mined profile into live scheduling pressure —
without touching the admission layer's invariants (every request still
gets exactly one response; conservation still holds).

Two mechanisms, both deliberately narrow:

- **overload demotion** — :meth:`TemplateHintProvider.effective_priority`
  lowers the priority of requests whose template the profile marked
  pathologically slow. The admission controller consults it only at the
  *shedding* decision (the overload path), so under normal load slow
  templates are served exactly as before; under overload they become
  the preferred victims, and the accelerator passes that survive are
  the cheap ones.
- **pass quarantine** — :class:`~repro.service.qos.QoSScheduler` keeps
  slow-template and fast-template queries in *separate* passes. A pass
  is paced by its most expensive rider (the scan covers the union's
  candidate pages), so one broad template in a batch taxes every
  fast query sharing it; quarantine confines that cost to the slow
  pass.

Both effects are measured, not asserted: ``benchmarks/bench_workload.py``
runs the same overload traffic with and without hints and gates on a
per-slice goodput/p99 win in the A/B report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import QueryError
from repro.obs.journal import template_fingerprint
from repro.obs.metrics import handle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analytics.workload import WorkloadProfile
    from repro.service.request import Request

__all__ = ["TemplateHintProvider", "resolve_priority"]


class TemplateHintProvider:
    """Priority hints keyed by query-template fingerprint.

    ``slow_templates`` holds the fingerprints (:func:`repro.obs.journal
    .template_fingerprint` of the query text) the mined profile flagged;
    ``demotion`` is how many priority levels a flagged request loses at
    the shedding decision. Fingerprinting is memoised per query text, so
    the hot admission path pays one dict lookup per consult.
    """

    def __init__(
        self,
        slow_templates: Iterable[str],
        demotion: int = 1,
        source: str = "manual",
    ) -> None:
        if demotion <= 0:
            raise QueryError("demotion must be positive")
        self.slow_templates = frozenset(slow_templates)
        self.demotion = demotion
        self.source = source  #: provenance note ("manual", "mined:<window>")
        self._memo: dict[str, bool] = {}
        self._m_demotions = handle("mithrilog_workload_hint_demotions_total")
        handle("mithrilog_workload_slow_templates").set(len(self.slow_templates))

    @classmethod
    def from_profile(
        cls,
        profile: "WorkloadProfile",
        latency_factor: float = 2.0,
        min_count: int = 4,
        max_slow: int = 4,
        demotion: int = 1,
    ) -> "TemplateHintProvider":
        """Mine the hint set from a workload profile.

        A template is *pathologically slow* when it was seen often
        enough to trust (``min_count`` completions) and its **minimum**
        service time is at least ``latency_factor`` times the median
        minimum across templates. The min, not the p99: shared passes
        are paced by their most expensive rider, so percentiles smear a
        slow template's cost onto every template that ever shared its
        pass — the cheapest pass a template rode is the one number its
        co-riders cannot inflate. At most ``max_slow`` worst offenders
        are flagged — hints are a scalpel, not a ban list.
        """
        slices = [
            s
            for s in profile.slices("template").values()
            if s.ok >= min_count and s.min_service_ms > 0
        ]
        if not slices:
            return cls((), demotion=demotion, source="mined:empty")
        mins = sorted(s.min_service_ms for s in slices)
        median_min = mins[len(mins) // 2]
        flagged = sorted(
            (s for s in slices if s.min_service_ms >= latency_factor * median_min),
            key=lambda s: (-s.min_service_ms, s.value),
        )[:max_slow]
        return cls(
            (s.value for s in flagged),
            demotion=demotion,
            source=f"mined:{profile.window or 'all'}",
        )

    def __len__(self) -> int:
        return len(self.slow_templates)

    def is_slow(self, query: object) -> bool:
        """Does this query's template carry a slow flag?"""
        text = str(query)
        verdict = self._memo.get(text)
        if verdict is None:
            verdict = template_fingerprint(text) in self.slow_templates
            self._memo[text] = verdict
        return verdict

    def effective_priority(self, request: "Request") -> int:
        """The priority the overload path should compare with."""
        if self.is_slow(request.query):
            return request.priority - self.demotion
        return request.priority

    def note_demotion(self) -> None:
        """Record that a demoted request actually lost a shedding tie."""
        self._m_demotions.inc()

    def describe(self) -> dict:
        return {
            "source": self.source,
            "demotion": self.demotion,
            "slow_templates": sorted(self.slow_templates),
        }


def resolve_priority(
    hints: Optional[TemplateHintProvider], request: "Request"
) -> int:
    """Hinted priority when hints are active, the declared one otherwise."""
    if hints is None:
        return request.priority
    return hints.effective_priority(request)
