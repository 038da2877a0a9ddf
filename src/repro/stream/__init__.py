"""Streaming evaluation: standing queries, windows, alerts, sampling.

The batch half of the system answers queries over ingested history.
This package adds the live half (see ``docs/STREAMING.md``):

- :mod:`repro.stream.windows` — tumbling/sliding windowed aggregates
  (count, rate, distinct templates) on the simulated clock;
- :mod:`repro.stream.standing` — :class:`StandingQueryRegistry`:
  continuous queries evaluated incrementally over newly sealed pages,
  with threshold alerts riding the PR 9 burn-rate state machine and
  flight recorder;
- :mod:`repro.stream.sampling` — seeded deterministic page sampling
  with Horvitz–Thompson match estimates and confidence intervals (the
  approximate admission class the service degrades to under overload);
- :mod:`repro.stream.status` — the ``mithrilog_stream_config`` /
  ``mithrilog_stream_status`` artifact kinds and validators.
"""

from repro.stream.sampling import (
    SampleEstimate,
    estimate_matches,
    page_in_sample,
    sample_pages,
)
from repro.stream.standing import (
    StandingQuery,
    StandingQueryRegistry,
    Threshold,
)
from repro.stream.status import (
    STREAM_CONFIG_KIND,
    STREAM_STATUS_KIND,
    build_stream_config,
    load_stream_config,
    parse_stream_config,
    validate_stream_config,
    validate_stream_status,
)
from repro.stream.windows import (
    WINDOW_AGGREGATES,
    WindowAggregator,
    WindowSpec,
)

__all__ = [
    "SampleEstimate",
    "estimate_matches",
    "page_in_sample",
    "sample_pages",
    "StandingQuery",
    "StandingQueryRegistry",
    "Threshold",
    "STREAM_CONFIG_KIND",
    "STREAM_STATUS_KIND",
    "build_stream_config",
    "load_stream_config",
    "parse_stream_config",
    "validate_stream_config",
    "validate_stream_status",
    "WINDOW_AGGREGATES",
    "WindowAggregator",
    "WindowSpec",
]
