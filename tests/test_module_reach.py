"""Every ``src/repro`` module earns its place: something real imports it.

A module is *reached* when it lies in the import closure of a root:

- the entry points ``repro.cli``, ``repro.system.mithrilog`` and
  ``repro.service.service``, plus every ``repro`` module with an
  ``if __name__ == "__main__":`` guard;
- every ``examples/*.py``;
- every paper bench (``benchmarks/bench_table*.py``, ``bench_fig*.py``)
  and ``benchmarks/conftest.py``, which holds their fixtures.

Edges are read from the AST. Relative imports are resolved and imports
inside functions count (they run at call time). Typing-only imports
count too: they name the types a root's signature accepts, such as the
fault injectors and hint providers callers pass in. A package
``__init__``'s own imports are not followed, so a
re-export alone reaches nothing; ``from pkg import Name`` instead
resolves to the module that defines ``Name``. Importing a module runs
its packages' ``__init__`` files, so those are reached with it.

A module nothing reaches is deleted, or it is listed in :data:`ALLOWED`
with the one reason that keeps it. The list can only shrink: an entry
that is reached, or names no module, fails, and so does an entry that
binds a metric family (a family on no runtime path always reads zero).
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Optional

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

ENTRY_POINTS = ("repro.cli", "repro.system.mithrilog", "repro.service.service")

#: Modules no root reaches, each with the reason it stays.
ALLOWED = {
    "repro.baselines.regexdfa": "§7.4.3 regex-engine comparison: bench_regex_comparison.py",
    "repro.index.bloom": "§6 indexing-strategy ablation: bench_ablate_index_strategy.py",
    "repro.storage.ftl": "bench_ftl.py, and FlashTranslationLayer.retire_block is the bad-block fault model",
    "repro.system.scheduler": "§4 union-join claim: bench_concurrent_queries.py, public repro.QueryScheduler",
    "repro.templates.prefixtree": "§4.3 column extension, tests only: reaching it needs a CLI option and query syntax",
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _module_path(name: str) -> Optional[Path]:
    base = SRC.joinpath(*name.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Every import statement in a module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def _absolute(path: Path, node: ast.ImportFrom) -> str:
    """The absolute module a (possibly relative) ``from`` import names."""
    if not node.level:
        return node.module or ""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package.pop()
    package = package[: len(package) - node.level + 1]
    return ".".join(package + ([node.module] if node.module else []))


def _local(importer: Path, name: str) -> Optional[Path]:
    """A sibling script (``benchmarks/_harness.py``) named by a plain import."""
    path = importer.parent / f"{name}.py"
    return path if not importer.is_relative_to(SRC) and path.is_file() else None


@lru_cache(maxsize=None)
def _defining(module: str, name: str) -> Optional[Path]:
    """The file that defines ``name`` for ``from module import name``."""
    path = _module_path(module)
    if path is None or path.name != "__init__.py":
        return path
    submodule = _module_path(f"{module}.{name}")
    if submodule is not None:
        return submodule
    for node in _imports(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _defining(_absolute(path, node), alias.name)
    return path


def _targets(path: Path) -> Iterator[Path]:
    """The files one module's imports load."""
    for node in _imports(_tree(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = _module_path(alias.name) or _local(path, alias.name)
                if target is not None:
                    yield target
            continue
        module = _absolute(path, node)
        local = _local(path, module) if not node.level else None
        if local is not None:
            yield local
            continue
        for alias in node.names:
            target = _defining(module, alias.name)
            if target is not None:
                yield target


def _packages(path: Path) -> Iterator[Path]:
    """The ``__init__`` files importing ``path`` runs first."""
    if path.is_relative_to(SRC):
        for parent in path.parents:
            if parent == SRC:
                break
            if parent != path.parent or path.name != "__init__.py":
                yield parent / "__init__.py"


def _guarded() -> list[Path]:
    """``repro`` modules that run as scripts (``if __name__ == "__main__":``)."""
    return [
        path
        for path in sorted(PACKAGE.rglob("*.py"))
        if any(
            isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)
            for node in _tree(path).body
        )
    ]


def _roots() -> list[Path]:
    benchmarks = ROOT / "benchmarks"
    return [
        *(_module_path(name) for name in ENTRY_POINTS),
        *_guarded(),
        *sorted((ROOT / "examples").glob("*.py")),
        *sorted(benchmarks.glob("bench_table*.py")),
        *sorted(benchmarks.glob("bench_fig*.py")),
        benchmarks / "conftest.py",
    ]


def _reached() -> set[Path]:
    seen: set[Path] = set()
    stack = list(_roots())
    while stack:
        path = stack.pop()
        if path in seen:
            continue
        seen.add(path)
        stack.extend(_packages(path))
        if path.name != "__init__.py":
            stack.extend(_targets(path))
    return seen


def _unreached() -> set[str]:
    reached = _reached()
    return {
        _module_name(path)
        for path in PACKAGE.rglob("*.py")
        if path not in reached
    }


def _binds_a_family(path: Path) -> bool:
    for node in ast.walk(_tree(path)):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "handle"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).startswith("mithrilog_")
        ):
            return True
    return False


class TestResolution:
    def test_roots_exist(self):
        roots = _roots()
        assert all(path is not None and path.is_file() for path in roots)
        assert {_module_name(p) for p in _guarded()} >= {
            "repro.__main__",
            "repro.cli",
        }

    def test_reexports_resolve_to_the_defining_module(self):
        assert _defining("repro", "QueryScheduler") == _module_path(
            "repro.system.scheduler"
        )
        assert _defining("repro.index", "InvertedIndex") == _module_path(
            "repro.index.inverted"
        )
        assert _defining("repro.index", "inverted") == _module_path(
            "repro.index.inverted"
        )

    def test_relative_imports_resolve(self):
        init = PACKAGE / "index" / "__init__.py"
        module = PACKAGE / "index" / "inverted.py"
        node = ast.parse("from .hashindex import RowState").body[0]
        assert _absolute(module, node) == "repro.index.hashindex"
        assert _absolute(init, node) == "repro.index.hashindex"
        node = ast.parse("from ..core import query").body[0]
        assert _absolute(module, node) == "repro.core"

    def test_imports_at_call_time_are_edges(self):
        tree = ast.parse(
            "import os\n"
            "def f():\n    from repro.index import inverted\n"
        )
        modules = [
            node.module if isinstance(node, ast.ImportFrom) else node.names[0].name
            for node in _imports(tree)
        ]
        assert sorted(modules) == ["os", "repro.index"]


class TestReach:
    def test_every_module_is_reached_or_allowed(self):
        orphans = sorted(_unreached() - set(ALLOWED))
        assert not orphans, f"reached by no root and not in ALLOWED: {orphans}"

    @pytest.mark.parametrize("module", sorted(ALLOWED))
    def test_allowed_entry_is_a_real_unreached_module(self, module):
        assert _module_path(module) is not None, f"{module} does not exist"
        assert module in _unreached(), f"{module} is reached: drop it from ALLOWED"
        reason = ALLOWED[module]
        assert reason.strip() and "\n" not in reason

    @pytest.mark.parametrize("module", sorted(ALLOWED))
    def test_allowed_module_binds_no_metric_family(self, module):
        path = _module_path(module)
        assert path is not None, f"{module} does not exist"
        assert not _binds_a_family(path), (
            f"{module} is on no runtime path, so its metric families read zero"
        )
