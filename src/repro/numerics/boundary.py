"""Boundary treatments: axis symmetry, characteristic outflow, inflow, sponge.

Four boundaries close the jet domain:

* **Inflow** (``x = 0``): Dirichlet — the excited jet profile of
  :class:`repro.physics.jet.InflowExcitation` evaluated at the new time.
* **Outflow** (``x = L``): the characteristic treatment of Hayder & Turkel
  quoted in the paper.  The time derivatives produced by the interior
  (one-sided) Navier-Stokes residual are converted to the primitive rates
  ``(rho_t, u_t, v_t, p_t)``; at *subsonic* points the incoming acoustic
  characteristic is replaced by ``p_t - rho c u_t = 0`` while the outgoing
  combinations ``R2 = p_t + rho c u_t``, ``R3 = p_t - c^2 rho_t`` and
  ``R4 = v_t`` keep their Navier-Stokes values; at *supersonic* points all
  rates come from the interior scheme.
* **Axis** (``r = 0``): symmetry of the axisymmetric mode — the radial flux
  ``r G`` is reflected with component signs ``(+, +, -, +)`` (even
  quantities times the odd radius, except the radial-momentum flux which is
  even times odd).
* **Far field** (``r = R``): cubic flux extrapolation plus an optional thin
  sponge relaxing the outermost lines toward the quiescent ambient state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import constants
from ..physics import eos

#: Reflection signs of the r-weighted radial flux (r G) across the axis.
AXIS_FLUX_SIGNS = np.array([1.0, 1.0, -1.0, 1.0])

#: Reflection signs of the conservative state (rho, rho u, rho v, E) across
#: the axis (radial momentum is odd).
AXIS_STATE_SIGNS = np.array([1.0, 1.0, -1.0, 1.0])


def apply_axis_ghosts(
    rG: np.ndarray, out: np.ndarray | None = None, signs: np.ndarray = AXIS_FLUX_SIGNS
) -> np.ndarray:
    """Low-side (axis) ghost planes for the r-weighted radial flux (or,
    with ``AXIS_STATE_SIGNS``, the conservative state).

    On the half-offset radial grid the mirror of ghost ``j = -1`` is
    ``j = 0`` and of ``j = -2`` is ``j = 1``.  Returns shape
    ``(2, 4, nx)`` ordered outward (nearest ghost first), written into
    ``out`` when given.
    """
    if out is None:
        out = np.empty((2,) + rG.shape[:2])
    np.multiply(signs[:, None], rG[:, :, 0], out=out[0])
    np.multiply(signs[:, None], rG[:, :, 1], out=out[1])
    return out


def primitive_rates(q: np.ndarray, q_t: np.ndarray, gamma: float = constants.GAMMA):
    """Convert conservative time derivatives to primitive rates.

    Implements the paper's relations (with ``m = rho u``, ``n = rho v``)::

        u_t = m_t / rho - u rho_t / rho
        v_t = n_t / rho - v rho_t / rho
        p_t = (gamma - 1)(E_t + (u^2 + v^2)/2 rho_t - u m_t - v n_t)

    Returns ``(rho_t, u_t, v_t, p_t)``.
    """
    rho, m, n = q[0], q[1], q[2]
    u = m / rho
    v = n / rho
    rho_t, m_t, n_t, E_t = q_t[0], q_t[1], q_t[2], q_t[3]
    u_t = (m_t - u * rho_t) / rho
    v_t = (n_t - v * rho_t) / rho
    p_t = (gamma - 1.0) * (
        E_t + 0.5 * (u * u + v * v) * rho_t - u * m_t - v * n_t
    )
    return rho_t, u_t, v_t, p_t


def conservative_rates(
    q: np.ndarray,
    rho_t: np.ndarray,
    u_t: np.ndarray,
    v_t: np.ndarray,
    p_t: np.ndarray,
    gamma: float = constants.GAMMA,
) -> np.ndarray:
    """Inverse of :func:`primitive_rates`."""
    rho = q[0]
    u = q[1] / rho
    v = q[2] / rho
    q_t = np.empty_like(q)
    q_t[0] = rho_t
    q_t[1] = u * rho_t + rho * u_t
    q_t[2] = v * rho_t + rho * v_t
    q_t[3] = (
        p_t / (gamma - 1.0)
        + 0.5 * (u * u + v * v) * rho_t
        + rho * (u * u_t + v * v_t)
    )
    return q_t


def characteristic_outflow_rates(
    q_col: np.ndarray,
    q_t_interior: np.ndarray,
    gamma: float = constants.GAMMA,
) -> np.ndarray:
    """Characteristic-filtered conservative rates at the outflow column.

    Parameters
    ----------
    q_col:
        Conservative state on the boundary column, shape ``(4, nr)``.
    q_t_interior:
        Conservative time derivatives at the boundary column evaluated from
        the interior (one-sided) scheme, shape ``(4, nr)``.

    Returns
    -------
    Conservative rates with the incoming characteristic zeroed wherever the
    axial flow is subsonic; supersonic points pass the interior rates
    through unchanged.
    """
    rho = q_col[0]
    u = q_col[1] / rho
    p = eos.pressure(q_col[0], q_col[1], q_col[2], q_col[3], gamma)
    c = np.sqrt(gamma * p / rho)

    rho_t, u_t, v_t, p_t = primitive_rates(q_col, q_t_interior, gamma)
    R2 = p_t + rho * c * u_t
    R3 = p_t - c * c * rho_t
    R4 = v_t

    # Subsonic filter: p_t - rho c u_t = 0 together with the outgoing R's.
    p_t_f = 0.5 * R2
    u_t_f = 0.5 * R2 / (rho * c)
    rho_t_f = (p_t_f - R3) / (c * c)
    v_t_f = R4

    subsonic = u < c
    p_t = np.where(subsonic, p_t_f, p_t)
    u_t = np.where(subsonic, u_t_f, u_t)
    rho_t = np.where(subsonic, rho_t_f, rho_t)
    v_t = np.where(subsonic, v_t_f, v_t)
    return conservative_rates(q_col, rho_t, u_t, v_t, p_t, gamma)


@dataclass
class Sponge:
    """Thin far-field sponge relaxing toward the ambient state.

    Applies ``q <- q + sigma(j) (q_ambient - q)`` on the outermost
    ``width`` radial lines, with ``sigma`` ramping quadratically from 0 to
    ``strength``.  Disabled entirely with ``width = 0``.
    """

    width: int = 4
    strength: float = 0.1

    def apply(self, q: np.ndarray, q_ambient_col: np.ndarray) -> None:
        """In-place relaxation; ``q_ambient_col`` has shape ``(4, nr)``."""
        if self.width <= 0:
            return
        nr = q.shape[2]
        w = min(self.width, nr)
        ramp = (np.arange(1, w + 1) / w) ** 2 * self.strength
        target = q_ambient_col[:, None, nr - w :]
        q[:, :, nr - w :] += ramp[None, None, :] * (target - q[:, :, nr - w :])


@dataclass
class BoundaryConditions:
    """Bundle of boundary settings for the jet solvers.

    Attributes
    ----------
    inflow:
        :class:`repro.physics.jet.InflowExcitation` or ``None`` (no Dirichlet
        inflow; used by test configurations such as periodic advection).
    characteristic_outflow:
        Enable the Hayder-Turkel treatment at the last axial column.
    sponge:
        Far-field sponge (or ``None``).
    """

    inflow: object | None = None
    characteristic_outflow: bool = True
    sponge: Sponge | None = field(default_factory=Sponge)

    def inflow_column(self, r: np.ndarray, t: float, gamma: float) -> np.ndarray:
        """Conservative inflow column at time ``t``, shape ``(4, nr)``."""
        rho, u, v, p = self.inflow.primitives(r, t)
        col = np.empty((4, r.size))
        col[0] = rho
        col[1] = rho * u
        col[2] = rho * v
        col[3] = eos.total_energy(rho, u, v, p, gamma)
        return col
