"""The three kernel backends for the solver hot path.

* ``"baseline"`` — the allocating numpy kernels (paper Version 1).  The
  **reference**: every other backend is pinned bitwise against it.  Still
  live outside the tests: it is what a request that names no backend
  runs (so building a :class:`~repro.scenarios.Scenario` never triggers a
  C build), and it is the allocating branch ``_outflow_rates`` takes, on
  every backend, for a strip its window workspace was not sized for.
* ``"fused"`` — in-place kernels over a preallocated
  :class:`~.base.StepWorkspace`, bitwise-identical to the baseline (paper
  Versions 2-4 transplanted to numpy).  The supported **no-toolchain
  fallback**, and the benchmark harness's bitwise oracle.
* ``"compiled"`` — the fused kernels as native loops: one C translation
  unit built once with the system compiler and called through ctypes
  (paper "V6"), bitwise-identical again.  The **product**; on a host with
  no C toolchain it degrades to the fused kernels with a warning
  (:class:`~.compiled.BackendUnavailable`).

A backend is selected by the request and by nothing else:
``SolverConfig(backend=...)`` / ``repro.api.run(..., backend=...)`` /
``repro run --backend``; ``None`` means ``"baseline"``, so constructing a
solver (which building a :class:`~repro.scenarios.Scenario` does) never
triggers a C build.  No environment variable and no runtime registration
can change which kernels a request runs — what ran is what the request's
identity says (see DESIGN.md section 7).
"""

from __future__ import annotations

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
    "get_backend",
    "resolve_backend",
    "available_backends",
]

_BACKENDS: dict[str, KernelBackend] = {
    # Instantiating CompiledBackend builds nothing: the C build is lazy and
    # per-host, and a host without a toolchain falls back to the fused
    # workspace with a warning at solver construction.
    backend.name: backend
    for backend in (BaselineBackend(), FusedBackend(), CompiledBackend())
}


def get_backend(name: str) -> KernelBackend:
    """Look up a backend by name."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None


def resolve_backend(name: str | None = None) -> KernelBackend:
    """The named backend; ``None`` is ``"baseline"``, always."""
    return get_backend("baseline" if name is None else name)


def available_backends() -> list[str]:
    """Backend names, sorted."""
    return sorted(_BACKENDS)
