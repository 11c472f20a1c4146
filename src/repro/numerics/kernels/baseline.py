"""The baseline (allocating) kernel backend.

This is the paper's "Version 1": the straightforward vectorized
implementation, kept verbatim as the reference the fused backend must match
bitwise.  It requests no workspace, so every solver layer takes its original
allocating path.
"""

from __future__ import annotations

from .base import KernelBackend, StepWorkspace


class BaselineBackend(KernelBackend):
    """Reference backend: original allocating numpy kernels."""

    name = "baseline"

    def step_workspace(self, solver, shape=None) -> StepWorkspace | None:
        return None
