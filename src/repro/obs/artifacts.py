"""What every JSON artifact kind shares: envelope, file I/O, problem cap.

Stdlib-only leaf. The nine artifact kinds are listed once, in
:data:`repro.obs.check.ARTIFACTS`; the modules that own a kind call
these helpers instead of keeping their own copy of

- the ``kind`` / ``version`` envelope check (:func:`envelope_problems`),
- read-JSON-or-raise and mkdir-and-dump (:func:`read_json`,
  :func:`write_json`),
- the cap on how many per-entry problems one validator reports
  (:func:`capped`),
- the "named entries plus a check interval" config shape that
  ``mithrilog_slo_config`` and ``mithrilog_stream_config`` both are
  (:class:`NamedEntriesConfig`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Generic, TypeVar, Union

__all__ = [
    "MAX_PROBLEMS",
    "NamedEntriesConfig",
    "capped",
    "envelope_problems",
    "read_json",
    "write_json",
]

#: Per-entry problems a validator lists before it stops looking.
MAX_PROBLEMS = 20

T = TypeVar("T")


def envelope_problems(payload: object, kind: str, version: int) -> list[str]:
    """Problems with a ``{"kind": ..., "version": ...}`` envelope.

    Any problem here ends validation: the fields of another kind, or of
    a version this code does not know, cannot be judged.
    """
    if not isinstance(payload, dict):
        return ["not an object"]
    if payload.get("kind") != kind:
        return [f"kind must be {kind!r}, got {payload.get('kind')!r}"]
    if payload.get("version") != version:
        return [f"unsupported {kind} version {payload.get('version')!r}"]
    return []


def capped(problems: list[str]) -> bool:
    """True (after appending a marker) once the problem cap is reached."""
    if len(problems) < MAX_PROBLEMS:
        return False
    problems.append("... (further problems suppressed)")
    return True


def read_json(
    path: Union[str, Path], error_cls: type[Exception], what: str
) -> Any:
    """Parse a JSON file, or raise ``error_cls("<path>: unreadable <what> ...")``."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise error_cls(f"{path}: unreadable {what} ({exc})") from exc


def write_json(
    path: Union[str, Path],
    payload: Any,
    *,
    indent: int = 1,
    sort_keys: bool = False,
    newline: bool = True,
) -> Path:
    """Dump ``payload`` to ``path`` (parents created); returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    path.write_text(text + "\n" if newline else text)
    return path


@dataclass(frozen=True)
class NamedEntriesConfig(Generic[T]):
    """A config artifact: an envelope, ``check_interval_s``, named entries.

    ``entry_from_dict`` builds one entry (an object with a ``name``) and
    raises ``error_cls`` on a malformed one.
    """

    kind: str
    version: int
    key: str  #: the payload field holding the entry list
    entry_from_dict: Callable[[dict], T]
    error_cls: type[Exception]
    what: str  #: how error messages name the file ("SLO config")

    def validate(self, payload: object) -> list[str]:
        """Schema check for a config payload; returns problem strings."""
        problems = envelope_problems(payload, self.kind, self.version)
        if problems:
            return problems
        assert isinstance(payload, dict)
        interval = payload.get("check_interval_s", 0.005)
        if not isinstance(interval, (int, float)) or interval <= 0:
            problems.append("check_interval_s must be a positive number")
        entries = payload.get(self.key)
        if not isinstance(entries, list) or not entries:
            problems.append(f"{self.key} must be a non-empty list")
            return problems
        names: set[str] = set()
        for i, raw in enumerate(entries):
            try:
                entry = self.entry_from_dict(raw)
            except self.error_cls as exc:
                problems.append(f"{self.key}[{i}]: {exc}")
                continue
            if entry.name in names:
                problems.append(
                    f"{self.key}[{i}]: duplicate name {entry.name!r}"
                )
            names.add(entry.name)
        return problems

    def parse(self, payload: dict) -> tuple[list[T], float]:
        """Validated ``(entries, check_interval_s)`` from a config payload."""
        problems = self.validate(payload)
        if problems:
            raise self.error_cls("; ".join(problems))
        entries = [self.entry_from_dict(raw) for raw in payload[self.key]]
        return entries, float(payload.get("check_interval_s", 0.005))

    def load(self, path: Union[str, Path]) -> tuple[list[T], float]:
        """Read and validate a JSON config from disk."""
        return self.parse(read_json(path, self.error_cls, self.what))
