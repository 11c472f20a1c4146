"""Pluggable kernel backends for the solver hot path.

The registry maps names to :class:`~.base.KernelBackend` instances:

* ``"baseline"`` — the original allocating numpy kernels (paper Version 1);
* ``"fused"`` — in-place kernels over a preallocated
  :class:`~.base.StepWorkspace`, bitwise-identical to the baseline (paper
  Versions 2-4 transplanted to numpy);
* ``"compiled"`` — the fused kernels as native loops: one C translation
  unit built once with the system compiler and called through ctypes
  (paper "V6"), bitwise-identical again, with a clean
  :class:`~.compiled.BackendUnavailable` fallback to the fused kernels on
  hosts with no C toolchain.

Selection order: an explicit ``SolverConfig(backend=...)`` /
``repro.api.run(..., backend=...)`` argument wins; otherwise the
``REPRO_BACKEND`` environment variable; otherwise ``"baseline"``.
Third-party backends can be added with :func:`register_backend`.
"""

from __future__ import annotations

import os

from .base import KernelBackend, StepWorkspace
from .baseline import BaselineBackend
from .compiled import BackendUnavailable, CompiledBackend, CompiledWorkspace
from .fused import FusedBackend, fused_axial_flux, fused_radial_flux

__all__ = [
    "KernelBackend",
    "StepWorkspace",
    "BaselineBackend",
    "FusedBackend",
    "CompiledBackend",
    "CompiledWorkspace",
    "BackendUnavailable",
    "fused_axial_flux",
    "fused_radial_flux",
    "register_backend",
    "get_backend",
    "resolve_backend",
    "available_backends",
]

#: Environment variable consulted when no backend is named explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(name: str, backend: KernelBackend) -> None:
    """Register ``backend`` under ``name`` (replacing any previous entry)."""
    if not isinstance(backend, KernelBackend):
        raise TypeError(
            f"backend must be a KernelBackend instance, got {type(backend).__name__}"
        )
    _REGISTRY[name] = backend


def get_backend(name: str) -> KernelBackend:
    """Look up a registered backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None


def resolve_backend(name: str | None = None) -> KernelBackend:
    """Resolve an explicit name, the ``REPRO_BACKEND`` variable, or the default."""
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or "baseline"
    return get_backend(name)


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


register_backend("baseline", BaselineBackend())
register_backend("fused", FusedBackend())
# Registration is unconditional; the C build is lazy and per-host, and a
# host without a toolchain falls back to the fused workspace with a
# warning at solver construction.
register_backend("compiled", CompiledBackend())
