"""Stable time-step estimation for the explicit 2-4 MacCormack scheme."""

from __future__ import annotations

import numpy as np

from .. import constants
from ..physics import eos


class SolutionDiverged(FloatingPointError):
    """The adaptive time step estimated at ``step`` is not finite and
    positive: the state holds a NaN, an infinity or a negative pressure or
    density, and no later step can mean anything."""

    def __init__(self, step: int, dt: float) -> None:
        self.step = step
        self.dt = dt
        super().__init__(f"solution diverged at step {step}: stable dt = {dt!r}")

    def __reduce__(self):
        # Rebuilt from its fields, so it survives a process boundary.
        return (type(self), (self.step, self.dt))


def stable_dt(
    q: np.ndarray,
    dx: float,
    dr: float,
    cfl: float = 0.5,
    mu: float = 0.0,
    gamma: float = constants.GAMMA,
) -> float:
    """Largest stable ``dt`` by the convective (and optional viscous) limits.

    The convective limit uses the standard multidimensional estimate

    ``dt <= cfl / max( (|u| + c)/dx + (|v| + c)/dr )``

    (the 2-4 scheme's 1-D stability bound is ``lambda <= 2/3``; the default
    ``cfl = 0.5`` leaves margin for the source terms and boundary closures).
    The viscous limit is ``dt <= 0.25 * min(dx, dr)^2 / max(nu)`` with
    kinematic viscosity ``nu = mu / rho`` scaled by the conductivity-driven
    factor ``gamma / Pr`` worst case.

    Works on full-domain or subdomain arrays; the distributed solver
    min-reduces the per-slab results, which is exactly equal to the serial
    value.
    """
    rho = q[0]
    u = q[1] / rho
    v = q[2] / rho
    p = eos.pressure(q[0], q[1], q[2], q[3], gamma)
    c = np.sqrt(gamma * p / rho)
    conv = np.max((np.abs(u) + c) / dx + (np.abs(v) + c) / dr)
    dt = cfl / conv
    if mu:
        nu = np.max(mu / rho) * max(gamma / constants.PRANDTL, 1.0)
        dt_visc = 0.25 * min(dx, dr) ** 2 / nu
        dt = min(dt, dt_visc)
    return float(dt)
