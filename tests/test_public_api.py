"""Public-API hygiene: every module imports, every export resolves.

Cheap insurance against broken ``__all__`` lists, circular imports and
dangling re-exports — failures here mean a user's first import breaks.
"""

import importlib
import pkgutil

import pytest

import repro
from repro.core.backend import numpy_or_none

MODULES = sorted(
    name
    for _finder, name, _ispkg in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    )
)


def _lacks_numpy(module_name: str) -> bool:
    """A ``repro.analytics*`` module on a host without numpy (those
    modules import numpy at load)."""
    return module_name.split(".")[:2] == ["repro", "analytics"] and numpy_or_none() is None


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports(module_name):
    if _lacks_numpy(module_name):
        pytest.skip(f"{module_name} needs numpy")
    module = importlib.import_module(module_name)
    assert module is not None


@pytest.mark.parametrize(
    "module_name",
    [
        "repro",
        "repro.core",
        "repro.compression",
        "repro.index",
        "repro.storage",
        "repro.system",
        "repro.templates",
        "repro.datasets",
        "repro.baselines",
        "repro.analytics",
        "repro.hw",
        "repro.sim",
    ],
)
def test_all_exports_resolve(module_name):
    if _lacks_numpy(module_name):
        pytest.skip(f"{module_name} needs numpy")
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{module_name} should declare __all__"
    for name in exported:
        assert hasattr(module, name), f"{module_name}.{name} is dangling"


def test_every_public_callable_has_a_docstring():
    import inspect

    missing = []
    for module_name in MODULES:
        if any(part.startswith("_") for part in module_name.split(".")):
            continue
        if _lacks_numpy(module_name):
            continue
        module = importlib.import_module(module_name)
        if not module.__doc__:
            missing.append(module_name)
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module_name:
                continue
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not obj.__doc__:
                    missing.append(f"{module_name}.{name}")
    assert not missing, f"missing docstrings: {missing}"


def test_version_is_exposed():
    assert repro.__version__
