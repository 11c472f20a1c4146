"""Numerical model: the fourth-order Gottlieb-Turkel (2-4) MacCormack scheme.

The scheme (paper Section 3) splits the operator ``L`` in ``L Q = S`` into
one-dimensional sweeps and alternates one-sided predictor/corrector variants:

* ``L1``: forward difference in the predictor, backward in the corrector;
* ``L2``: the symmetric variant (backward predictor, forward corrector);
* time stepping alternates ``Q^{n+1} = L1x L1r Q^n`` and
  ``Q^{n+2} = L2r L2x Q^{n+1}``,

which is fourth-order accurate in space and second-order in time.
"""

from .stencils import (
    backward_difference,
    cubic_ghosts,
    extend_axis,
    forward_difference,
)
from .maccormack import SplitOperator, SweepWorkspace
from .boundary import (
    BoundaryConditions,
    Sponge,
    apply_axis_ghosts,
    characteristic_outflow_rates,
)
from .timestep import SolutionDiverged, stable_dt
from .solver import EulerSolver, NavierStokesSolver, SolverConfig

__all__ = [
    "forward_difference",
    "backward_difference",
    "cubic_ghosts",
    "extend_axis",
    "SplitOperator",
    "SweepWorkspace",
    "BoundaryConditions",
    "Sponge",
    "apply_axis_ghosts",
    "characteristic_outflow_rates",
    "stable_dt",
    "SolutionDiverged",
    "EulerSolver",
    "NavierStokesSolver",
    "SolverConfig",
]
