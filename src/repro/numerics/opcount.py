"""Floating-point operation counts of this package's kernels.

The paper's Table 1 reports total FP operation counts (145,000 x 10^6 for
Navier-Stokes, 77,000 x 10^6 for Euler on the 250x100 grid for 5000 steps).
For the "measured" characterization mode we count *our* kernels the same
way: flops per cell per step, itemized per kernel from the vectorized
expressions (one count per arithmetic array operation; a division counts as
one flop, matching the nominal convention of the era's counters).

Our solver performs roughly half the paper's per-cell work — the original
fourth-order code carried additional smoothing/metric terms and computed in
a less factored form (e.g. its pre-V4 variant executed 5.5e9 divisions;
ours shares reciprocals aggressively).  The ``table1`` artifact prints
both side by side; the discrete-event figures use the paper's own Table-1
numbers so the simulated machines see the published workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import constants

#: Flops per cell for one inviscid flux evaluation (F and G together):
#: reciprocal (1), u, v (2), p (5), E+p (1), flux assembly (9).
INVISCID_FLUX = 18

#: Flops per cell for the viscous terms: primitives (9), six gradients
#: (~18), dilatation + five stress/heat components (~19), viscous flux
#: assembly and subtraction (~16).
VISCOUS_TERMS = 62

#: One-sided 2-4 difference + predictor/corrector update, per sweep
#: (4 variables x (4-op stencil + 3-op update) x 2 phases).
SWEEP_UPDATE = 56

#: Radial weight / source handling per r-sweep.
RADIAL_EXTRA = 14

#: Fourth-difference filter, both directions.
FILTER = 50

#: Boundary conditions, time-step logic, sponge — amortized per cell.
MISC = 10


@dataclass(frozen=True)
class OpCount:
    """Per-cell-per-step flops, split by kernel."""

    x_sweep: float
    r_sweep: float
    filter: float
    misc: float

    @property
    def per_cell_step(self) -> float:
        return self.x_sweep + self.r_sweep + self.filter + self.misc

    def total(
        self,
        nx: int = constants.PAPER_NX,
        nr: int = constants.PAPER_NR,
        steps: int = constants.PAPER_STEPS,
    ) -> float:
        """Total flops for a run (the Table-1 'Total Comp.' figure)."""
        return self.per_cell_step * nx * nr * steps


def navier_stokes_ops() -> OpCount:
    """Per-cell-step counts for the Navier-Stokes solver."""
    flux_ns = INVISCID_FLUX + VISCOUS_TERMS
    return OpCount(
        x_sweep=2 * flux_ns + SWEEP_UPDATE,
        r_sweep=2 * flux_ns + SWEEP_UPDATE + RADIAL_EXTRA,
        filter=FILTER,
        misc=MISC,
    )


def euler_ops() -> OpCount:
    """Per-cell-step counts for the Euler solver."""
    return OpCount(
        x_sweep=2 * INVISCID_FLUX + SWEEP_UPDATE,
        r_sweep=2 * INVISCID_FLUX + SWEEP_UPDATE + RADIAL_EXTRA,
        filter=FILTER,
        misc=MISC,
    )
