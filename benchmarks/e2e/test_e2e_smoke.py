"""Smoke test for bench_e2e.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs ``run.py --scale 0.02`` on all four workloads (well under 30 s) and
pins the record shape, the BENCHMARK.json vocabulary, the trace
mechanics, determinism of the simulated figures, the boundary-table
robustness rule and the comparator. Not part of tier-1's ``testpaths``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from layers import BOUNDARIES, Tracer, UnresolvedBoundary  # noqa: E402
from metrics import END_TO_END, PER_LAYER, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=120,
    )


def runs_of(path: Path) -> dict[tuple[str, bool], dict]:
    return {
        (r["workload"], r["traced"]): r
        for r in json.loads(path.read_text())["runs"]
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, Path]:
    out = tmp_path_factory.mktemp("e2e")
    paths = {name: out / f"{name}.json" for name in ("first", "again", "other")}
    assert bench("--scale", "0.02", "--seed", "7", "--out",
                 str(paths["first"])).returncode == 0
    assert bench("--scale", "0.02", "--seed", "7", "--no-trace", "--out",
                 str(paths["again"])).returncode == 0
    assert bench("--scale", "0.02", "--seed", "8", "--no-trace", "--out",
                 str(paths["other"])).returncode == 0
    return paths


def test_benchmark_json_is_the_vocabulary_of_the_code():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in PER_LAYER
    ]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))


def test_every_metric_is_present_finite_and_unit_tagged(outputs):
    runs = runs_of(outputs["first"])
    for workload in (w["name"] for w in SPEC["workloads"]):
        for traced, listed in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
            record = runs[workload, traced]
            assert record["failed"] == 0 and record["attempted"] >= 1
            for metric in listed:
                got = record["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"]
                assert got["clock"] in ("wall", "sim", "exact")
                assert math.isfinite(got["value"]), metric["name"]
            if not traced:
                assert all(record["metrics"][m["name"]]["value"] > 0
                           for m in SPEC["end_to_end"])
        header = runs[workload, False]
        for key in ("commit", "python", "numpy", "nproc", "scan_kernel",
                    "scan_backend", "seed", "corpora", "op_counts", "samples"):
            assert key in header


def test_trace_reconciles_and_spans_are_well_formed(outputs):
    runs = runs_of(outputs["first"])
    for workload in (w["name"] for w in SPEC["workloads"]):
        record = runs[workload, True]
        assert record["unresolved_boundaries"] == []
        assert record["min_self_s"] >= -1e-9
        share = record["metrics"]["bench.unattributed_share"]["value"]
        assert share is not None and 0 <= share < 1
        payload = json.loads((ROOT / record["span_file"]).read_text())
        parent = payload["columns"].index("parent")
        assert len(payload["spans"]) == record["spans"] > 0
        # a parent is always opened before its child, so links cannot cycle
        assert all(-1 <= span[parent] < i for i, span in enumerate(payload["spans"]))
    # the layer-bypass predictions the workloads were chosen for
    value = lambda w, name: runs[w, True]["metrics"][name]["value"]  # noqa: E731
    assert value("scan_cold", "index.probes") == 0
    assert value("ingest_tail", "stream.evaluations") == 0
    assert value("service_stream", "stream.evaluations") > 0
    assert value("ingest_tail", "storage.device_read_s") > 0
    for workload in ("scan_cold", "index_warm", "service_stream"):
        assert value(workload, "storage.device_read_s") == 0


def test_simulated_figures_repeat_exactly_and_follow_the_seed(outputs):
    first, again, other = (runs_of(outputs[k]) for k in ("first", "again", "other"))
    for workload in (w["name"] for w in SPEC["workloads"]):
        a, b, c = first[workload, False], again[workload, False], other[workload, False]
        assert a["sim_digest"] == b["sim_digest"] == first[workload, True]["sim_digest"]
        assert a["sim_digest"] != c["sim_digest"]
        for name, metric in a["metrics"].items():
            if metric["clock"] in ("sim", "exact"):
                assert metric["value"] == b["metrics"][name]["value"], name


def test_comparator_agrees_with_itself_and_flags_a_regression(outputs):
    runs = compare.load_runs(str(outputs["first"]))
    assert not compare.compare(runs, runs, SPEC)[1]
    # a second run of the same seed: 50 ms timed regions make the wall
    # rows wobble, but the simulated rows and sim_digest must be equal
    lines, _ = compare.compare(runs, compare.load_runs(str(outputs["again"])), SPEC)
    assert sum("equal" in line for line in lines) == 4 * 4
    assert not any("DIFFERENT" in line for line in lines)
    slower = json.loads(json.dumps(runs))
    for record in slower:
        record["metrics"]["wall_s"]["value"] *= 2
    lines, regression = compare.compare(runs, slower, SPEC)
    assert regression and any("REGRESSION" in line for line in lines)
    moved = json.loads(json.dumps(runs))
    moved[0]["sim_digest"] = "0" * 40
    assert compare.compare(runs, moved, SPEC)[1]


def test_driver_form_prints_the_result_object_last():
    for trace, listed in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        done = bench("--workload", "scan_cold", "--seed", "3", "--seconds", "0.2",
                     "--trace", trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in listed]
        assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "scan_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and not done.stdout.strip()


def test_unresolved_boundary_reads_null_never_zero():
    broken = [
        replace(b, attr="renamed_away") if b.name == "compress" else b
        for b in BOUNDARIES
    ]
    tracer = Tracer()
    tracer.install(broken)
    tracer.uninstall()
    assert tracer.unresolved == ["compress"]
    summary = tracer.summary()
    with pytest.raises(UnresolvedBoundary):
        summary.busy("compress")

    class Context:  # every counter the formulas read is simply zero
        timing = defaultdict(float)

        def __getattr__(self, name):
            return 0.0

    values = per_layer(summary, Context())
    for name in ("compression.compress_s", "compression.compress_calls",
                 "compression.compress_mbps", "compression.compress_calls_per_page"):
        assert values[name] is None
    assert values["compression.decode_s"] == 0.0  # resolved, merely idle
