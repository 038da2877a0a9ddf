"""SLO detection benchmark: fault onset -> firing alert, measured.

Standalone (``python benchmarks/bench_slo_detection.py``): builds a
corpus and a seeded open-loop workload below measured capacity, then
serves it three ways on the simulated clock:

1. **clean** — healthy backend, live :class:`repro.obs.slo.SLOMonitor`
   attached: the monitor must stay silent (zero alerts — the false-
   positive gate);
2. **faulted** — a :class:`~repro.faults.injectors.ServiceFaultInjector`
   slows a contiguous window of accelerator passes mid-run
   (``slow_pass`` schedule); queued requests time out and shed, the
   availability SLO's burn rate spikes, and the alert must fire within
   a bounded **sim-time detection latency** of the fault's onset. A
   :class:`~repro.obs.recorder.FlightRecorder` snapshots an incident
   bundle at fire time, which must pass
   :func:`repro.obs.recorder.validate_incident_bundle`;
3. **faulted, unmonitored** — the identical faulted run without the
   monitor: simulated outcomes must be byte-identical (the monitor
   observes, never steers), and the monitored run's wall-clock overhead
   is recorded.

Gates (non-zero exit, what the CI ``slo-smoke`` job keys off):

1. zero alerts on the clean run;
2. the faulted run fires a burn-rate alert, with detection latency
   (fault onset -> firing, simulated seconds) within ``--detect-ceiling``;
3. the incident bundle validates and covers the fault window;
4. two identical faulted runs produce identical alert timelines and
   outcome signatures (determinism);
5. the monitor does not perturb simulated outcomes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _harness import outcome_signature
from repro.datasets.synthetic import generator_for
from repro.faults.injectors import ServiceFaultInjector
from repro.faults.reporting import FaultLog
from repro.faults.schedules import AtOperationsSchedule
from repro.obs.expose import bootstrap_families
from repro.obs.journal import QueryJournal, validate_journal_payload
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.recorder import FlightRecorder, validate_incident_bundle
from repro.obs.slo import SLO, SLOMonitor
from repro.service import (
    QueryService,
    estimate_capacity,
    make_tenants,
    open_loop_requests,
    query_pool,
)
from repro.system.mithrilog import MithriLogSystem


class OnsetStampingInjector(ServiceFaultInjector):
    """Fault injector that records the simulated time of its first
    slow pass — the onset the detection-latency gate measures from.

    (Fault-log events carry operation indices, not sim timestamps, so
    the bench stamps the clock at the injection point itself.)
    """

    def __init__(self, clock, **kwargs):
        super().__init__(**kwargs)
        self._clock = clock
        self.first_slow_at_s = None

    def on_pass(self, batch_size: int) -> float:
        multiplier = super().on_pass(batch_size)
        if multiplier > 1.0 and self.first_slow_at_s is None:
            self.first_slow_at_s = self._clock.now
        return multiplier


def bench_slos(args) -> list[SLO]:
    """The objectives under test: aggregate availability + latency."""
    return [
        SLO(
            name="availability-all",
            objective="availability",
            tenant="*",
            target=args.target,
            fast_window_s=args.fast_window,
            slow_window_s=args.slow_window,
            burn_threshold=args.burn_threshold,
            resolve_after_s=args.slow_window,
        ),
        SLO(
            name="latency-p-all",
            objective="latency",
            tenant="*",
            target=args.target,
            latency_threshold_s=args.latency_slo_ms / 1e3,
            fast_window_s=args.fast_window,
            slow_window_s=args.slow_window,
            burn_threshold=args.burn_threshold,
            resolve_after_s=args.slow_window,
        ),
    ]


def run(args: argparse.Namespace) -> int:
    lines = list(
        generator_for(args.dataset, seed=args.seed).iter_lines(args.lines)
    )
    tenants = make_tenants(args.tenants, queue_limit=args.queue_limit)

    def build(monitored: bool, faulted: bool):
        """One fresh, registry-isolated serving stack."""
        registry = MetricsRegistry()
        with use_registry(registry):
            bootstrap_families(registry)
            system = MithriLogSystem(seed=args.seed)
            system.ingest(lines)
            pool = query_pool(lines, max_queries=args.pool, seed=args.seed)
            journal = QueryJournal(max_entries=args.journal_max_entries)
            injector = None
            if faulted:
                injector = OnsetStampingInjector(
                    system.clock,
                    slow_passes=AtOperationsSchedule(
                        range(args.fault_start, args.fault_start + args.fault_width)
                    ),
                    slowdown=args.slowdown,
                    log=FaultLog(),
                )
            monitor = recorder = None
            if monitored:
                monitor = SLOMonitor(bench_slos(args), interval_s=args.interval)
                recorder = FlightRecorder(
                    monitor,
                    journal=journal,
                    fault_logs=[injector.log] if injector else (),
                    system=system,
                    lookback_s=args.slow_window,
                )
            service = QueryService(
                system,
                tenants,
                max_backlog=args.max_backlog,
                journal=journal,
                monitor=monitor,
                fault_injector=injector,
            )
            return system, pool, service, journal, monitor, recorder, injector

    # capacity anchor (healthy stack, no monitor)
    system, pool, service, *_ = build(monitored=False, faulted=False)
    capacity = estimate_capacity(
        lambda: service, pool, tenants, seed=args.seed
    )
    offered = capacity * args.load
    print(
        f"corpus: {args.dataset} x {len(lines):,} lines, "
        f"{len(tenants)} tenants, {len(pool)} pool queries"
    )
    print(
        f"measured capacity: {capacity:,.0f} q/s; offering "
        f"{offered:,.0f} q/s (x{args.load:g}) for "
        f"{args.duration * 1e3:.0f} ms simulated"
    )
    traffic = open_loop_requests(
        pool,
        tenants,
        offered_qps=offered,
        duration_s=args.duration,
        seed=args.seed,
        deadline_s=args.deadline_ms / 1e3,
    )

    failures: list[str] = []

    # -- clean run: the false-positive gate --------------------------------
    _, _, service, journal, monitor, _, _ = build(monitored=True, faulted=False)
    t0 = time.perf_counter()
    clean = service.run(traffic)
    clean_wall_s = time.perf_counter() - t0
    clean_fired = [a for a in monitor.alerts if a.fired_at_s is not None]
    print(
        f"clean: goodput {clean.goodput_qps:,.0f} q/s, loss "
        f"{100 * clean.shed_rate:.1f}%, {monitor.evaluations} evaluations, "
        f"{len(clean_fired)} alert(s)"
    )
    if clean_fired:
        failures.append(
            f"false positive: {len(clean_fired)} alert(s) fired on the "
            f"clean run ({[a.slo for a in clean_fired]})"
        )
    if not clean.conserved() or not journal.conserved():
        failures.append("clean run violated outcome conservation")

    # -- faulted run: detection latency + incident bundle ------------------
    _, _, service, journal, monitor, recorder, injector = build(
        monitored=True, faulted=True
    )
    t0 = time.perf_counter()
    faulted = service.run(traffic)
    faulted_wall_s = time.perf_counter() - t0
    onset_s = injector.first_slow_at_s
    fired = [a for a in monitor.alerts if a.fired_at_s is not None]
    print(
        f"faulted: goodput {faulted.goodput_qps:,.0f} q/s, loss "
        f"{100 * faulted.shed_rate:.1f}%, "
        f"{len(injector.log.events)} fault(s) injected, "
        f"{len(fired)} alert(s) fired"
    )
    detection_s = None
    if onset_s is None:
        failures.append(
            "the slow-pass schedule never fired — widen --fault-width "
            "or lower --fault-start"
        )
    elif not fired:
        failures.append(
            "no alert fired on the faulted run (detection miss)"
        )
    else:
        first_fire_s = min(a.fired_at_s for a in fired)
        detection_s = first_fire_s - onset_s
        print(
            f"  fault onset {onset_s * 1e3:.2f} ms sim, first alert "
            f"fired {first_fire_s * 1e3:.2f} ms sim -> detection latency "
            f"{detection_s * 1e3:.2f} ms sim"
        )
        if detection_s > args.detect_ceiling:
            failures.append(
                f"detection latency {detection_s * 1e3:.2f} ms sim exceeds "
                f"ceiling {args.detect_ceiling * 1e3:.2f} ms"
            )
    journal_problems = validate_journal_payload(journal.to_payload())
    if journal_problems:
        failures.append(f"faulted journal failed validation: {journal_problems}")

    bundle = None
    if recorder.bundles:
        bundle = recorder.bundles[0]
        problems = validate_incident_bundle(bundle)
        if problems:
            failures.append(f"incident bundle failed validation: {problems}")
        window = bundle["window"]
        if onset_s is not None and not (
            window["start_s"] <= onset_s <= window["end_s"]
        ):
            print(
                "  note: fault onset outside the bundle's evidence window "
                f"([{window['start_s'] * 1e3:.2f}, "
                f"{window['end_s'] * 1e3:.2f}] ms)"
            )
        print(
            f"  incident bundle: {len(bundle['journal'].get('records', []))} "
            f"journal records, {len(bundle['faults']['events'])} fault "
            f"events, slow template "
            f"{bundle.get('slow_template', {}).get('template', '(none)')}"
        )
    elif fired:
        failures.append("alert fired but the flight recorder captured nothing")

    # -- determinism: identical faulted runs, identical timelines ----------
    _, _, service2, _, monitor2, _, _ = build(monitored=True, faulted=True)
    faulted2 = service2.run(traffic)
    if outcome_signature(faulted) != outcome_signature(faulted2):
        failures.append("identical faulted runs produced different outcomes")
    if monitor.timeline() != monitor2.timeline():
        failures.append(
            "identical faulted runs produced different alert timelines"
        )

    # -- non-intrusiveness: the monitor observes, never steers -------------
    _, _, service3, _, _, _, _ = build(monitored=False, faulted=True)
    t0 = time.perf_counter()
    unmonitored = service3.run(traffic)
    unmonitored_wall_s = time.perf_counter() - t0
    if outcome_signature(faulted) != outcome_signature(unmonitored):
        failures.append(
            "monitored and unmonitored faulted runs diverged — the "
            "monitor perturbed simulated outcomes"
        )
    overhead = (
        faulted_wall_s / unmonitored_wall_s if unmonitored_wall_s > 0 else 0.0
    )
    print(
        f"monitor wall overhead: x{overhead:.2f} "
        f"({faulted_wall_s * 1e3:.0f} ms vs {unmonitored_wall_s * 1e3:.0f} ms "
        "host wall-clock)"
    )
    if overhead > args.overhead_ceiling:
        failures.append(
            f"monitor wall overhead x{overhead:.2f} exceeds ceiling "
            f"x{args.overhead_ceiling:g}"
        )

    # -- artifacts ---------------------------------------------------------
    if args.bundle_out is not None and bundle is not None:
        from repro.obs.recorder import write_bundle

        for path in write_bundle(bundle, args.bundle_out):
            print(f"wrote incident artifact {path}")
    if args.journal_out is not None:
        journal.write(args.journal_out)
        print(f"wrote faulted query journal to {args.journal_out}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1

    records = [
        {
            "bench": "slo",
            "config": "clean",
            "goodput_qps": round(clean.goodput_qps, 2),
            "p99_ms": round(clean.latency_percentile_s(99) * 1e3, 4),
            "loss_rate": round(clean.shed_rate, 4),
            "alerts": len(clean_fired),
            "wall_s": round(clean_wall_s, 3),
        },
        {
            "bench": "slo",
            "config": "faulted",
            "goodput_qps": round(faulted.goodput_qps, 2),
            "p99_ms": round(faulted.latency_percentile_s(99) * 1e3, 4),
            "loss_rate": round(faulted.shed_rate, 4),
            "alerts": len(fired),
            "wall_s": round(faulted_wall_s, 3),
        },
        {
            "bench": "slo",
            "config": "detection",
            "detection_latency_ms": round(detection_s * 1e3, 4),
            "onset_ms": round(onset_s * 1e3, 4),
            "evaluations": monitor.evaluations,
            "bundles": len(recorder.bundles),
            "wall_overhead": round(overhead, 3),
        },
    ]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    trajectory = json.loads(out.read_text()) if out.exists() else []
    trajectory.extend(records)
    out.write_text(json.dumps(trajectory, indent=1) + "\n")
    print(f"wrote {len(records)} records to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="Liberty2")
    parser.add_argument("--lines", type=int, default=4000)
    parser.add_argument("--tenants", type=int, default=3)
    parser.add_argument("--pool", type=int, default=12)
    parser.add_argument("--queue-limit", type=int, default=64)
    parser.add_argument("--max-backlog", type=int, default=16)
    parser.add_argument("--load", type=float, default=0.6,
                        help="offered load as a multiple of measured "
                        "capacity (below 1.0: the clean run must be quiet)")
    parser.add_argument("--duration", type=float, default=0.5,
                        help="simulated seconds of offered traffic")
    parser.add_argument("--deadline-ms", type=float, default=60.0,
                        help="per-request deadline (simulated ms); slow "
                        "passes push queued requests past it")
    parser.add_argument("--fault-start", type=int, default=40,
                        help="pass index where the slow-pass window opens")
    parser.add_argument("--fault-width", type=int, default=60,
                        help="passes the slow-pass window covers")
    parser.add_argument("--slowdown", type=float, default=8.0,
                        help="slow-pass time multiplier")
    parser.add_argument("--target", type=float, default=0.9,
                        help="SLO good-fraction target")
    parser.add_argument("--latency-slo-ms", type=float, default=50.0,
                        help="latency SLO threshold (simulated ms)")
    parser.add_argument("--fast-window", type=float, default=0.05,
                        help="fast burn window (simulated seconds)")
    parser.add_argument("--slow-window", type=float, default=0.15,
                        help="slow burn window (simulated seconds)")
    parser.add_argument("--burn-threshold", type=float, default=3.0)
    parser.add_argument("--interval", type=float, default=0.005,
                        help="monitor evaluation cadence (simulated seconds)")
    parser.add_argument("--detect-ceiling", type=float, default=0.2,
                        help="max fault-onset -> alert-firing latency "
                        "(simulated seconds)")
    parser.add_argument("--overhead-ceiling", type=float, default=5.0,
                        help="max monitored/unmonitored wall-clock ratio "
                        "(generous: host wall time is noisy in CI)")
    parser.add_argument("--journal-max-entries", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_slo.json")
    parser.add_argument("--bundle-out", default=None,
                        help="directory for the faulted run's incident "
                        "bundle artifacts")
    parser.add_argument("--journal-out", default=None,
                        help="write the faulted run's journal here")
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
