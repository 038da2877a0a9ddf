"""Scan-kernel selection.

Each scan stage has exactly two implementations:

- ``vectorized`` — the numpy kernel: bulk LZAH decode, boolean-mask
  tokenization and the fact-matrix filter over ``np.frombuffer`` views
  of the decompressed page (no per-token objects, ever),
- ``reference`` — the pure-Python per-line kernel, which doubles as the
  oracle the differential suite compares the numpy kernel against and
  as the only kernel on hosts without numpy.

A kernel runs its own stages alone, on any page (``\\r`` lines included).

:func:`resolve_kernel` is the single switch, fed by
``MithriLogSystem(scan_kernel=...)``: ``auto`` (the default, also what
``None`` means) picks ``vectorized`` iff numpy imports, else
``reference``; an explicit ``vectorized`` without numpy raises
:class:`BackendUnavailableError`.

Nothing here imports numpy at module load; the probe is lazy and cached
so a missing numpy costs one failed import per process, ever.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "BackendUnavailableError",
    "numpy_or_none",
    "resolve_backend",
    "resolve_kernel",
]

#: Scan kernels, in auto-selection preference order.
KERNELS = ("vectorized", "reference")

#: Lazy numpy probe result; ``False`` means "probed, absent".
_NUMPY: object = None


class BackendUnavailableError(RuntimeError):
    """The numpy kernel was requested explicitly but numpy is missing."""


def numpy_or_none():
    """The numpy module, or ``None`` when it is not installed (cached)."""
    global _NUMPY
    if _NUMPY is None:
        try:
            import numpy
        except ImportError:
            _NUMPY = False
        else:
            _NUMPY = numpy
    return _NUMPY or None


def resolve_kernel(name: Optional[str] = None) -> str:
    """Resolve a scan-kernel name to a kernel.

    ``None``/``"auto"`` prefers the numpy kernel and silently routes
    hosts without numpy to the reference kernel; ``"reference"`` pins
    the oracle (the differential suite and the hot-path benchmark do);
    an explicit ``"vectorized"`` raises :class:`BackendUnavailableError`
    when numpy is missing.
    """
    name = (name or "").strip().lower() or "auto"
    if name == "auto":
        return "vectorized" if numpy_or_none() is not None else "reference"
    if name not in KERNELS:
        raise ValueError(
            f"unknown scan kernel {name!r}; expected auto, vectorized or reference"
        )
    if name == "vectorized" and numpy_or_none() is None:
        raise BackendUnavailableError(
            "scan kernel 'vectorized' needs numpy, which is not importable"
        )
    return name


def resolve_backend(kernel: Optional[str] = None) -> str:
    """The array library behind the resolved kernel, for record headers.

    ``"numpy"`` for the vectorized kernel, ``"fallback"`` (plain Python
    lists) for the reference kernel. Not a switch: the kernel is.
    """
    return "numpy" if resolve_kernel(kernel) == "vectorized" else "fallback"
