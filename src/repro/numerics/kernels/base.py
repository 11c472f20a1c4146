"""Kernel-backend interface and the preallocated step workspace.

A :class:`KernelBackend` decides *how* the solver's hot path evaluates its
kernels (fluxes, stresses, one-sided differences, predictor/corrector
combinations, the fourth-difference filter):

* the ``"baseline"`` backend keeps the original allocating numpy path —
  every flux call and stencil difference returns fresh temporaries;
* the ``"fused"`` backend owns a :class:`StepWorkspace` of persistent
  scratch arrays and evaluates the same arithmetic with in-place
  ``np.<ufunc>(..., out=...)`` kernels, bitwise-identically;
* the ``"compiled"`` backend subclasses the workspace and runs the same
  per-element chains as native C loops, bitwise-identically again.

Backends must never change the numbers — only where they are stored and how
much work is repeated.  This mirrors the paper's single-processor Versions
1-5, which took the RS6000/560 from 9.3 to 16.0 MFLOPS without altering the
computed flow field.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..maccormack import SweepScratch


class KernelBackend(ABC):
    """Strategy object selecting the solver's kernel implementation."""

    #: Registry name (``"baseline"``, ``"fused"``, ...).
    name: str = ""

    @abstractmethod
    def step_workspace(self, solver, shape=None) -> "StepWorkspace | None":
        """Per-solver workspace, or ``None`` for the allocating path.

        Called from ``CompressibleSolver.__init__`` with the (local)
        state already constructed; distributed solvers therefore get
        buffers shaped like their halo-extended block automatically.
        ``shape`` asks for the same kernels over another ``(nvars, nx, nr)``
        extent than the state's — the solver's second workspace, for the
        5-column outflow window.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class StepWorkspace:
    """Every persistent buffer one solver needs for an allocation-free step.

    The workspace is sized once from the (local) state shape ``(nvars, nx,
    nr)`` and threaded through all layers of the hot path:

    * **state rotation** — ``state_a``/``state_b`` receive the sweep outputs
      (the caller ping-pongs between them, see :meth:`rotate_states`);
    * **sweep scratch** — ``sweep_x``/``sweep_r`` feed
      :meth:`~repro.numerics.maccormack.SplitOperator.apply`; they share the
      state-shaped ``q_star``/``rate``/``tmp3`` (sweeps run sequentially)
      and differ only in the ghost-extended ``ext`` buffer;
    * **flux evaluation** — ``F``/``S`` plus the 2-D primitive and stress
      buffers consumed by the fused flux kernels;
    * **ghost planes** — ``ghosts[axis]`` receives what a boundary closure
      (axis mirror, periodic wrap) supplies to a sweep or the filter;
    * **boundary strips** — ``q_tail`` holds the trailing five columns the
      characteristic outflow needs (replacing the full-state copy); the
      solver evaluates that window on a second workspace of this class,
      sized ``q_tail.shape`` (``KernelBackend.step_workspace(shape=)``).

    ``FluxModel`` hands it to the fused numpy flux kernels.  The compiled
    backend subclasses it (:class:`~.compiled.CompiledWorkspace`) with
    plans the solver hands its whole sweeps, filter and boundaries to — so
    baseline and fused stay untouched and every decomposition and
    substrate inherits whichever backend the solver resolved.
    """

    def __init__(
        self, shape: tuple[int, int, int], viscous: bool, mu_field: bool = False
    ) -> None:
        nvars, nx, nr = shape
        self.shape = shape
        # State rotation + shared sweep scratch.
        self.state_a = np.empty(shape)
        self.state_b = np.empty(shape)
        self.q_star = np.empty(shape)
        self.rate = np.empty(shape)
        # Flux evaluation: one shared directional flux vector and the
        # axisymmetric source (rows 0, 1, 3 stay zero forever; only row 2 is
        # rewritten per call).
        self.F = np.empty(shape)
        self.S = np.zeros(shape)
        # Primitives (shared by inviscid assembly and viscous gradients).
        plane = (nx, nr)
        self.u = np.empty(plane)
        self.v = np.empty(plane)
        self.p = np.empty(plane)
        self.T = np.empty(plane) if viscous else None
        self.tau_tt = np.empty(plane) if viscous else None
        self.mu = np.empty(plane) if (viscous and mu_field) else None
        # Boundary strip snapshot (trailing <=5 columns).
        self.q_tail = np.empty((nvars, min(5, nx), nr))
        # Ghost planes a boundary closure supplies (axis mirror, periodic
        # wrap) for a stencil along axis 1 / 2: a (low, high) pair of
        # (2, nvars, plane) buffers, planes ordered outward.  Sweeps and
        # filter run one after the other, so they share them.
        self.ghosts = {
            axis: (np.empty((2, nvars, m)), np.empty((2, nvars, m)))
            for axis, m in ((1, nr), (2, nx))
        }
        self._alloc_kernel_scratch(viscous)

    def _alloc_kernel_scratch(self, viscous: bool) -> None:
        """The temporaries only the numpy ufunc chains need: a materialised
        ghost-extended flux per axis, a second difference buffer, every
        gradient and stress as its own plane.  The compiled workspace keeps
        those in registers and allocates none of them."""
        nvars, nx, nr = self.shape
        self.tmp3 = np.empty(self.shape)
        self.ext_x = np.empty((nvars, nx + 4, nr))
        self.ext_r = np.empty((nvars, nx, nr + 4))
        self.sweep_x = SweepScratch(self.ext_x, self.q_star, self.rate, self.tmp3)
        self.sweep_r = SweepScratch(self.ext_r, self.q_star, self.rate, self.tmp3)
        plane = (nx, nr)
        self.inv_rho = np.empty(plane)
        self.t2a = np.empty(plane)
        self.t2b = np.empty(plane)
        if viscous:
            self.g_ux = np.empty(plane)  # du/dx
            self.g_ur = np.empty(plane)  # du/dr
            self.g_vx = np.empty(plane)  # dv/dx
            self.g_vr = np.empty(plane)  # dv/dr
            self.g_t = np.empty(plane)  # dT/dx or dT/dr (per direction)
            self.dilat = np.empty(plane)
            self.tau_n = np.empty(plane)  # tau_xx (axial) / tau_rr (radial)
            self.tau_s = np.empty(plane)  # tau_xr
            self.heat = np.empty(plane)

    def rotate_states(self, q_in: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Output buffers for the step's two sweeps given the input state.

        The first sweep must not write over ``q_in`` (the predictor and
        corrector both read it); the second sweep's output only needs to
        differ from the first's — it may land back on ``q_in``, which is
        dead once the first sweep completes.  In steady state the result
        therefore always lives in ``state_b`` with ``state_a`` as the
        intermediate; the caller's initial array is never written.
        """
        out1 = self.state_a if q_in is not self.state_a else self.state_b
        out2 = self.state_b if out1 is self.state_a else self.state_a
        return out1, out2
