"""Template hints: mined identification, demotion, pass quarantine."""

import pytest

from repro.core.query import Query
from repro.errors import QueryError
from repro.obs.journal import QueryJournal, template_fingerprint
from repro.obs.workload import mine
from repro.service import (
    AdmissionController,
    QoSScheduler,
    TemplateHintProvider,
    make_tenants,
    resolve_priority,
)
from repro.service.request import Outcome, Request
from repro.system.mithrilog import MithriLogSystem

SLOW = Query.single("slowtoken")
FAST = Query.single("fasttoken")
SLOW_FP = template_fingerprint(str(SLOW))
FAST_FP = template_fingerprint(str(FAST))


def hints_for_slow(**kwargs):
    return TemplateHintProvider([SLOW_FP], **kwargs)


class TestProvider:
    def test_is_slow_by_fingerprint(self):
        hints = hints_for_slow()
        assert hints.is_slow(SLOW)
        assert not hints.is_slow(FAST)
        # memoised path answers the same
        assert hints.is_slow(SLOW)
        assert len(hints) == 1

    def test_effective_priority_demotes_only_slow(self):
        hints = hints_for_slow(demotion=2)
        slow_req = Request(tenant="t0", query=SLOW, priority=5)
        fast_req = Request(tenant="t0", query=FAST, priority=5)
        assert hints.effective_priority(slow_req) == 3
        assert hints.effective_priority(fast_req) == 5
        assert resolve_priority(hints, slow_req) == 3
        assert resolve_priority(None, slow_req) == 5

    def test_demotion_must_be_positive(self):
        with pytest.raises(QueryError):
            TemplateHintProvider([SLOW_FP], demotion=0)

    def test_describe_carries_provenance(self):
        info = hints_for_slow(source="mined:baseline").describe()
        assert info["source"] == "mined:baseline"
        assert info["slow_templates"] == [SLOW_FP]


class TestFromProfile:
    def journal(self, slow_min_ms, fast_min_ms, n=6):
        # two cheap templates so the median-of-mins sits at the cheap
        # cost, one candidate outlier
        journal = QueryJournal()
        for i in range(n):
            for j, text in enumerate((str(FAST), "othertoken")):
                journal.observe_direct(
                    text,
                    latency_s=fast_min_ms / 1e3,
                    matches=1,
                    stage="flash",
                    completed_at_s=0.01 * (i + 1) + 0.002 * j,
                )
            journal.observe_direct(
                str(SLOW),
                latency_s=slow_min_ms / 1e3,
                matches=1,
                stage="index",
                completed_at_s=0.01 * (i + 1) + 0.005,
            )
        return journal

    def test_flags_template_with_outlying_min(self):
        profile = mine(self.journal(slow_min_ms=8.0, fast_min_ms=0.5))
        hints = TemplateHintProvider.from_profile(profile, latency_factor=2.0)
        assert hints.slow_templates == frozenset({SLOW_FP})
        assert hints.source == "mined:all"

    def test_uniform_costs_flag_nothing(self):
        profile = mine(self.journal(slow_min_ms=1.0, fast_min_ms=1.0))
        hints = TemplateHintProvider.from_profile(profile, latency_factor=2.0)
        assert hints.slow_templates == frozenset()

    def test_min_count_guards_thin_templates(self):
        profile = mine(self.journal(slow_min_ms=8.0, fast_min_ms=0.5, n=2))
        hints = TemplateHintProvider.from_profile(profile, min_count=4)
        assert hints.slow_templates == frozenset()
        assert hints.source == "mined:empty"

    def test_min_immune_to_co_rider_smearing(self):
        # the fast template sometimes rides an expensive pass (its p99
        # is inflated to the slow cost) but its *min* stays cheap — only
        # the genuinely slow template gets flagged
        journal = self.journal(slow_min_ms=8.0, fast_min_ms=0.5)
        for i in range(4):
            journal.observe_direct(
                str(FAST),
                latency_s=8.0 / 1e3,
                matches=1,
                stage="index",
                completed_at_s=0.2 + 0.01 * i,
            )
        hints = TemplateHintProvider.from_profile(mine(journal))
        assert hints.slow_templates == frozenset({SLOW_FP})

    def test_max_slow_caps_the_flag_list(self):
        # four cheap templates, two outliers; a cap of one must keep
        # only the *worst* offender, not an arbitrary flagged one
        journal = QueryJournal()
        costs = {"q0": 0.5, "q1": 0.5, "q2": 0.5, "q3": 0.5,
                 "q4": 8.0, "q5": 16.0}
        for k, (text, ms) in enumerate(sorted(costs.items())):
            for i in range(5):
                journal.observe_direct(
                    text,
                    latency_s=ms / 1e3,
                    matches=1,
                    stage="flash",
                    completed_at_s=0.01 * (k * 5 + i + 1),
                )
        uncapped = TemplateHintProvider.from_profile(
            mine(journal), latency_factor=2.0, min_count=4, max_slow=4
        )
        assert uncapped.slow_templates == frozenset(
            {template_fingerprint("q4"), template_fingerprint("q5")}
        )
        capped = TemplateHintProvider.from_profile(
            mine(journal), latency_factor=2.0, min_count=4, max_slow=1
        )
        assert capped.slow_templates == frozenset(
            {template_fingerprint("q5")}
        )


class TestAdmissionDemotion:
    def offer_all(self, admission, requests):
        responses = []
        for i, request in enumerate(requests):
            now = 0.001 * (i + 1)
            refusal, shed = admission.offer(request, now, now)
            if refusal is not None:
                responses.append(refusal)
            responses.extend(shed)
        return responses

    def test_slow_template_is_preferred_victim(self):
        tenants = make_tenants(1)
        admission = AdmissionController(
            tenants, max_backlog=1, hints=hints_for_slow()
        )
        name = tenants[0].name
        shed = self.offer_all(
            admission,
            [
                Request(tenant=name, query=SLOW, priority=1),
                Request(tenant=name, query=FAST, priority=1),
            ],
        )
        # equal declared priority: the hinted demotion evicts the queued
        # slow request so the fast newcomer gets the slot
        assert [r.outcome for r in shed] == [Outcome.SHED]
        assert shed[0].request.query is SLOW
        assert admission.pending()[0].request.query is FAST

    def test_without_hints_newcomer_sheds_on_tie(self):
        tenants = make_tenants(1)
        admission = AdmissionController(tenants, max_backlog=1)
        name = tenants[0].name
        shed = self.offer_all(
            admission,
            [
                Request(tenant=name, query=SLOW, priority=1),
                Request(tenant=name, query=FAST, priority=1),
            ],
        )
        assert shed[0].request.query is FAST
        assert admission.pending()[0].request.query is SLOW

    def test_declared_priority_still_outranks_demotion(self):
        tenants = make_tenants(1)
        admission = AdmissionController(
            tenants, max_backlog=1, hints=hints_for_slow(demotion=1)
        )
        name = tenants[0].name
        shed = self.offer_all(
            admission,
            [
                Request(tenant=name, query=SLOW, priority=5),
                Request(tenant=name, query=FAST, priority=1),
            ],
        )
        # slow-but-important (5-1=4) still beats fast-but-minor (1)
        assert shed[0].request.query is FAST


class TestPassQuarantine:
    def scheduler_and_admission(self, hints):
        system = MithriLogSystem()
        system.ingest([b"slowtoken fasttoken filler line"] * 8)
        tenants = make_tenants(2)
        admission = AdmissionController(tenants, hints=hints)
        scheduler = QoSScheduler(
            system.params.cuckoo,
            seed=system.engine.seed,
            max_batch=8,
            hints=hints,
        )
        return scheduler, admission, [t.name for t in tenants]

    def queue_mixed(self, admission, names):
        at = 0.0
        for query in (SLOW, FAST, FAST, SLOW):
            for name in names:
                at += 0.001
                refusal, shed = admission.offer(
                    Request(tenant=name, query=query), at, at
                )
                assert refusal is None and shed == []

    def test_slow_and_fast_never_share_a_pass(self):
        hints = hints_for_slow()
        scheduler, admission, names = self.scheduler_and_admission(hints)
        self.queue_mixed(admission, names)
        seen_mixed = False
        while admission.total_backlog:
            batch = scheduler.next_batch(admission)
            assert batch.members
            verdicts = {hints.is_slow(q) for q in batch.queries}
            seen_mixed = seen_mixed or len(verdicts) > 1
            assert len(verdicts) == 1
        assert not seen_mixed

    def test_no_hints_allows_sharing(self):
        scheduler, admission, names = self.scheduler_and_admission(None)
        self.queue_mixed(admission, names)
        probe = hints_for_slow()
        mixed = 0
        while admission.total_backlog:
            batch = scheduler.next_batch(admission)
            if len({probe.is_slow(q) for q in batch.queries}) > 1:
                mixed += 1
        assert mixed > 0
