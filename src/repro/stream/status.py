"""Stream artifact kinds: registration configs and status snapshots.

Two JSON artifact kinds, both accepted by ``repro.obs.check``:

- ``mithrilog_stream_config`` — a set of standing-query registrations
  (what ``repro stream register`` writes and ``repro stream status``
  replays);
- ``mithrilog_stream_status`` — a registry snapshot after a run:
  per-query window-state series, alert states, and the monitor's
  transition timeline (what ``repro stream status --out`` writes).

Both are rows of :data:`repro.obs.check.ARTIFACTS`; each ``validate_*``
returns a list of problem strings (empty = valid).
"""

from __future__ import annotations

from repro.errors import QueryError
from repro.obs.artifacts import NamedEntriesConfig, capped, envelope_problems
from repro.obs.slo import AlertState
from repro.stream.standing import StandingQuery
from repro.stream.windows import WINDOW_AGGREGATES

STREAM_CONFIG_KIND = "mithrilog_stream_config"
STREAM_CONFIG_VERSION = 1
STREAM_STATUS_KIND = "mithrilog_stream_status"
STREAM_STATUS_VERSION = 1

_ALERT_STATES = {state.value for state in AlertState}


# ---------------------------------------------------------------------------
# Config artifacts
# ---------------------------------------------------------------------------

_CONFIG = NamedEntriesConfig(
    kind=STREAM_CONFIG_KIND,
    version=STREAM_CONFIG_VERSION,
    key="queries",
    entry_from_dict=StandingQuery.from_dict,
    error_cls=QueryError,
    what="stream config",
)
validate_stream_config = _CONFIG.validate  #: payload -> problem strings
parse_stream_config = _CONFIG.parse  #: payload -> (queries, check_interval_s)
load_stream_config = _CONFIG.load  #: path -> (queries, check_interval_s)


def build_stream_config(
    queries: list[StandingQuery], check_interval_s: float = 0.005
) -> dict:
    """A config payload from registrations (``repro stream register``)."""
    return {
        "kind": STREAM_CONFIG_KIND,
        "version": STREAM_CONFIG_VERSION,
        "check_interval_s": check_interval_s,
        "queries": [standing.to_dict() for standing in queries],
    }


# ---------------------------------------------------------------------------
# Status artifacts
# ---------------------------------------------------------------------------


def _check_series(entry: dict, i: int, problems: list[str]) -> None:
    series = entry.get("window_state", {}).get("series")
    if not isinstance(series, dict):
        problems.append(f"queries[{i}]: window_state.series missing")
        return
    aggregates = entry.get("definition", {}).get("aggregates", [])
    for aggregate in aggregates:
        if aggregate not in series:
            problems.append(
                f"queries[{i}]: no series for aggregate {aggregate!r}"
            )
    for name, payload in series.items():
        if name not in WINDOW_AGGREGATES:
            problems.append(f"queries[{i}]: unknown series {name!r}")
            continue
        points = payload.get("points")
        if not isinstance(points, list):
            problems.append(f"queries[{i}]: series {name!r} has no points")
            continue
        last_t = None
        for point in points:
            if (
                not isinstance(point, list)
                or len(point) != 2
                or not all(isinstance(v, (int, float)) for v in point)
            ):
                problems.append(
                    f"queries[{i}]: series {name!r} has a malformed point"
                )
                break
            if last_t is not None and point[0] < last_t:
                problems.append(
                    f"queries[{i}]: series {name!r} time went backwards"
                )
                break
            last_t = point[0]


def validate_stream_status(payload: object) -> list[str]:
    """Integrity check for a status snapshot; returns problem strings."""
    problems = envelope_problems(
        payload, STREAM_STATUS_KIND, STREAM_STATUS_VERSION
    )
    if problems:
        return problems
    assert isinstance(payload, dict)
    for key in ("generated_at_s", "pages_seen", "evaluations"):
        value = payload.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            problems.append(f"{key} must be a non-negative number")
    entries = payload.get("queries")
    if not isinstance(entries, list):
        problems.append("queries must be a list")
        return problems
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            problems.append(f"queries[{i}]: not an object")
            continue
        try:
            standing = StandingQuery.from_dict(entry.get("definition", {}))
        except QueryError as exc:
            problems.append(f"queries[{i}]: bad definition ({exc})")
            continue
        state = entry.get("alert_state")
        if state not in _ALERT_STATES:
            problems.append(
                f"queries[{i}]: alert_state {state!r} is not one of "
                f"{sorted(_ALERT_STATES)}"
            )
        if standing.threshold is None and state not in (None, "ok"):
            problems.append(
                f"queries[{i}]: alert_state {state!r} without a threshold"
            )
        window_state = entry.get("window_state")
        if not isinstance(window_state, dict):
            problems.append(f"queries[{i}]: window_state missing")
            continue
        for key in ("evaluations", "matches_total"):
            value = window_state.get(key)
            if not isinstance(value, int) or value < 0:
                problems.append(
                    f"queries[{i}]: window_state.{key} must be a "
                    "non-negative integer"
                )
        _check_series(entry, i, problems)
        if capped(problems):
            break
    timeline = payload.get("monitor_timeline")
    if timeline is not None and not isinstance(timeline, list):
        problems.append("monitor_timeline must be a list when present")
    return problems
