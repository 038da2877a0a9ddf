"""Every metric family earns its row: something other than its publisher
reads it.

A row of :data:`repro.obs.families.FAMILIES` is *read* when its full
name appears in a string literal (docstrings and comments do not count)
of at least one reader:

- a test under ``tests/`` that asserts its value or uses it by name;
- a script under ``benchmarks/`` or a step of ``.github/workflows``;
- a script or config under ``examples/``;
- a ``src/repro`` module other than ``families.py`` and the module that
  binds the family with ``handle("…")`` — ``obs/recorder.py`` reading
  ``mithrilog_util_busy_fraction`` for its incident bundles is one.

A prefix (``"mithrilog_index_"``) names no family, and a whole-registry
dump (``render_prometheus``, a bundle's ``metrics``) reads every family
without naming one, so neither counts. A histogram is also read through
its exposition series (``_bucket``, ``_sum``, ``_count``).

A family nothing reads is deleted together with its binding and
publishing sites, or it is listed in :data:`ALLOWED` with the one reason
that keeps it. The list can only shrink: an entry that is read, or names
no row, fails.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping

from repro.obs.families import FAMILIES, Family

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: Families no reader names, each with the reason it stays.
ALLOWED: dict[str, str] = {
    "mithrilog_index_memory_bytes": (
        "its publish walks every hash row on each index probe; deleting it makes "
        "index_warm queries ~12x faster, a change the e2e benchmark's spread check "
        "cannot yet resolve (ROADMAP item 1b), so it goes with ROADMAP item 2"
    ),
}

#: Non-Python files that can name a family: workflow steps and configs.
_CONFIG_SUFFIXES = (".json", ".yml", ".yaml")

_HISTOGRAM_SERIES = "(?:_bucket|_sum|_count)?"


def _literals(source: str) -> str:
    """Every string literal of a Python source except docstrings and other
    bare-string statements, one per line."""
    tree = ast.parse(source)
    bare = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    return "\n".join(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in bare
    )


def _uncommented(text: str) -> str:
    """A workflow or config file without its ``#`` comment lines."""
    return "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith("#")
    )


def _bound(source: str) -> set[str]:
    """Family names a module binds with ``handle("…")``."""
    return {
        node.args[0].value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "handle"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    }


def _reader_files() -> list[Path]:
    gate = Path(__file__).resolve()
    files = [
        *(ROOT / "tests").rglob("*.py"),
        *(ROOT / "benchmarks").rglob("*.py"),
        *(ROOT / "examples").rglob("*"),
        *(ROOT / ".github" / "workflows").glob("*"),
        *PACKAGE.rglob("*.py"),
    ]
    return sorted(
        path
        for path in files
        if path.suffix in (".py", *_CONFIG_SUFFIXES)
        and path.resolve() != gate
        and path.name != "families.py"
    )


@lru_cache(maxsize=None)
def _readers() -> tuple[tuple[str, str, frozenset[str]], ...]:
    """``(path, readable text, families it publishes)`` of every reader.

    Only a ``src/repro`` module publishes what it binds; a test that binds
    a family uses it by name."""
    out = []
    for path in _reader_files():
        source = path.read_text()
        if path.suffix != ".py":
            text, bound = _uncommented(source), frozenset()
        else:
            text = _literals(source)
            bound = frozenset(_bound(source) if path.is_relative_to(PACKAGE) else ())
        out.append((path.relative_to(ROOT).as_posix(), text, bound))
    return tuple(out)


def _pattern(name: str, family: Family) -> re.Pattern:
    series = _HISTOGRAM_SERIES if family.kind == "histogram" else ""
    return re.compile(rf"(?<![A-Za-z0-9_]){re.escape(name)}{series}(?![A-Za-z0-9_])")


def readers_of(
    families: Mapping[str, Family],
    readers: Iterable[tuple[str, str, frozenset[str]]],
) -> dict[str, list[str]]:
    """Each family's readers: the files naming it, less the ones binding it."""
    readers = list(readers)
    return {
        name: [
            path
            for path, text, bound in readers
            if name not in bound and _pattern(name, family).search(text)
        ]
        for name, family in families.items()
    }


def _unread(families: Mapping[str, Family] = FAMILIES) -> set[str]:
    return {
        name for name, paths in readers_of(families, _readers()).items() if not paths
    }


class TestMatcher:
    def _read(self, source: str, bound: frozenset = frozenset()) -> list[str]:
        family = {"mithrilog_demo_total": Family("counter", "demo")}
        readers = [("demo.py", _literals(source), bound)]
        return readers_of(family, readers)["mithrilog_demo_total"]

    def test_a_literal_naming_the_family_reads_it(self):
        assert self._read('value = get("mithrilog_demo_total")\n') == ["demo.py"]
        assert self._read('line = "mithrilog_demo_total{mode=\\"x\\"} 1"\n')

    def test_docstrings_comments_and_prefixes_do_not(self):
        source = (
            '"""Reads mithrilog_demo_total."""\n'
            "# mithrilog_demo_total\n"
            'def f():\n    """mithrilog_demo_total"""\n'
            'prefix = "mithrilog_demo_"\n'
            'longer = "mithrilog_demo_total_extra"\n'
        )
        assert self._read(source) == []

    def test_the_binding_module_does_not_read_its_own_family(self):
        source = 'm = handle("mithrilog_demo_total")\n'
        assert self._read(source, frozenset(_bound(source))) == []

    def test_a_histogram_is_read_through_its_series(self):
        family = {"mithrilog_demo_seconds": Family("histogram", "demo")}
        readers = [("demo.py", 'x = "mithrilog_demo_seconds_bucket"', frozenset())]
        assert readers_of(family, readers)["mithrilog_demo_seconds"] == ["demo.py"]

    def test_workflow_comment_lines_do_not_read(self):
        assert _uncommented("# mithrilog_demo_total\nrun: echo ok\n") == "run: echo ok"


class TestFamilyReach:
    def test_every_family_is_read_or_allowed(self):
        orphans = sorted(_unread() - set(ALLOWED))
        assert not orphans, f"families no reader names and not in ALLOWED: {orphans}"

    def test_an_added_unread_row_fails_the_gate(self):
        rows = dict(FAMILIES)
        rows["mithrilog_gate_probe_total"] = Family("counter", "nobody reads this")
        assert _unread(rows) - _unread() == {"mithrilog_gate_probe_total"}

    def test_allowed_entries_are_real_unread_rows(self):
        unread = _unread()
        for name, reason in ALLOWED.items():
            assert name in FAMILIES, f"{name} is not a row of FAMILIES"
            assert name in unread, f"{name} has a reader: drop it from ALLOWED"
            assert reason.strip() and "\n" not in reason
