"""Helpers shared by the plain-script benchmarks (``bench_service.py``,
``bench_slo_detection.py``, ``bench_stream.py``, ``bench_workload.py``).

Imported as ``_harness``: a script run as ``python benchmarks/bench_x.py``
has this directory first on ``sys.path``.
"""

from __future__ import annotations


def outcome_signature(report):
    """Everything a ``ServiceReport`` decided, per response, as a tuple.

    Two runs of the same traffic are deterministic iff their signatures
    are equal; latencies are rounded past float noise.
    """
    return tuple(
        (r.request.tenant, r.outcome.value, round(r.latency_s, 12), r.matches)
        for r in report.responses
    )
