"""Viscous stresses and heat fluxes for the axisymmetric Navier-Stokes flux.

For an axisymmetric flow (no swirl) the Stokes-hypothesis stress tensor is

.. math::

    \\tau_{xx} = \\mu (2 u_x - \\tfrac{2}{3} \\Theta), \\quad
    \\tau_{rr} = \\mu (2 v_r - \\tfrac{2}{3} \\Theta), \\quad
    \\tau_{\\theta\\theta} = \\mu (2 v/r - \\tfrac{2}{3} \\Theta), \\quad
    \\tau_{xr} = \\mu (u_r + v_x),

with dilatation ``Theta = u_x + v_r + v/r``, and the Fourier heat flux is
``q_i = -k dT/dx_i`` with ``k = mu / ((gamma - 1) Pr)``.

Velocity and temperature gradients are evaluated with second-order central
differences (one-sided at domain edges) via :func:`numpy.gradient`.  In the
MacCormack framework the one-sided 2-4 differencing is applied to the *total*
flux, so second-order treatment of the already-diffusive terms preserves the
scheme's overall accuracy; this matches common practice for the
Gottlieb-Turkel scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import constants
from . import eos


@dataclass
class ViscousTerms:
    """Bundle of stress-tensor components and heat fluxes on the grid."""

    tau_xx: np.ndarray
    tau_rr: np.ndarray
    tau_tt: np.ndarray
    tau_xr: np.ndarray
    heat_x: np.ndarray
    heat_r: np.ndarray


def gradient_axis(
    f: np.ndarray,
    h: float,
    axis: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Second-order central gradient along one axis, optionally into ``out``.

    Bitwise-identical to ``np.gradient(f, h, axis=axis, edge_order=2)`` —
    the interior stencil ``(f[i+1] - f[i-1]) / (2 h)`` and numpy's one-sided
    second-order edge formulas are transcribed operation for operation — but
    computes only the requested axis and writes into a caller-owned buffer,
    which is what lets the fused kernel backend evaluate single-direction
    viscous stresses without allocating.
    """
    if out is None:
        return np.gradient(f, h, axis=axis, edge_order=2)
    n = f.shape[axis]
    if n < 3:
        raise ValueError(
            "gradient_axis needs at least 3 points for second-order edges"
        )

    def sl(idx) -> tuple:
        s = [slice(None)] * f.ndim
        s[axis] = idx
        return tuple(s)

    # Interior: (f[i+1] - f[i-1]) / (2 h).
    interior = out[sl(slice(1, -1))]
    np.subtract(f[sl(slice(2, None))], f[sl(slice(None, -2))], out=interior)
    np.divide(interior, 2.0 * h, out=interior)
    # Second-order one-sided edges (numpy's uniform-spacing coefficients).
    a, b, c = -1.5 / h, 2.0 / h, -0.5 / h
    out[sl(0)] = a * f[sl(0)] + b * f[sl(1)] + c * f[sl(2)]
    a, b, c = 0.5 / h, -2.0 / h, 1.5 / h
    out[sl(-1)] = a * f[sl(-3)] + b * f[sl(-2)] + c * f[sl(-1)]
    return out


def field_gradients(
    u: np.ndarray, v: np.ndarray, T: np.ndarray, dx: float, dr: float
):
    """Central x/r gradients of (u, v, T), one-sided at the array edges:
    ``(du_dx, du_dr, dv_dx, dv_dr, dT_dx, dT_dr)``.

    One two-axis ``np.gradient`` call per field: half the numpy call
    overhead of six one-axis calls, which is what the allocating 5-column
    outflow window (baseline backend) pays every step.
    """
    return tuple(
        g for f in (u, v, T) for g in np.gradient(f, dx, dr, edge_order=2)
    )


def stress_tensor(
    u: np.ndarray,
    v: np.ndarray,
    T: np.ndarray,
    r: np.ndarray,
    dx: float,
    dr: float,
    mu: np.ndarray | float,
    gamma: float = constants.GAMMA,
    prandtl: float = constants.PRANDTL,
) -> ViscousTerms:
    """Compute stresses and heat fluxes from primitive fields.

    Parameters
    ----------
    u, v, T:
        Axial velocity, radial velocity, temperature: ``(nx, nr)`` arrays.
    r:
        Radial coordinates, ``(nr,)`` (strictly positive; the grid offsets
        points off the axis).
    dx, dr:
        Grid spacings.
    mu:
        Dynamic viscosity, scalar or field.
    """
    du_dx, du_dr, dv_dx, dv_dr, dT_dx, dT_dr = field_gradients(u, v, T, dx, dr)
    v_over_r = v / r[None, :]
    dilat = du_dx + dv_dr + v_over_r
    two_thirds_dilat = (2.0 / 3.0) * dilat

    k = eos.conductivity(mu, gamma, prandtl)
    return ViscousTerms(
        tau_xx=mu * (2.0 * du_dx - two_thirds_dilat),
        tau_rr=mu * (2.0 * dv_dr - two_thirds_dilat),
        tau_tt=mu * (2.0 * v_over_r - two_thirds_dilat),
        tau_xr=mu * (du_dr + dv_dx),
        heat_x=-k * dT_dx,
        heat_r=-k * dT_dr,
    )


def viscous_fluxes(
    u: np.ndarray, v: np.ndarray, terms: ViscousTerms
) -> tuple[np.ndarray, np.ndarray]:
    """Viscous contributions ``(Fv, Gv)`` to subtract from the inviscid fluxes.

    ``F_total = F_inviscid - Fv`` and ``G_total = G_inviscid - Gv`` with

    ``Fv = (0, tau_xx, tau_xr, u tau_xx + v tau_xr - heat_x)`` and
    ``Gv = (0, tau_xr, tau_rr, u tau_xr + v tau_rr - heat_r)``.
    """
    shape = (4,) + u.shape
    Fv = np.zeros(shape)
    Gv = np.zeros(shape)
    Fv[1] = terms.tau_xx
    Fv[2] = terms.tau_xr
    Fv[3] = u * terms.tau_xx + v * terms.tau_xr - terms.heat_x
    Gv[1] = terms.tau_xr
    Gv[2] = terms.tau_rr
    Gv[3] = u * terms.tau_xr + v * terms.tau_rr - terms.heat_r
    return Fv, Gv
