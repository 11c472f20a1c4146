"""The fused, zero-allocation kernel backend.

Re-runs the paper's single-processor optimisation ladder (Versions 2-4:
eliminate redundant computation, fuse loops, keep everything in registers —
here: in preallocated buffers) on the Python/numpy hot path:

* primitives (``1/rho``, ``u``, ``v``, ``p``, ``T``) are evaluated **once**
  per flux call and shared between the inviscid assembly and the viscous
  stress gradients — the baseline path evaluates the identical expressions
  twice;
* only the flux vector the current split sweep consumes is assembled
  (baseline ``inviscid_fluxes`` always builds both ``F`` and ``G``);
* only the stress components and gradients the current direction needs are
  computed (the axial flux never reads ``dT/dr`` or ``tau_rr``);
* every ufunc writes into a persistent :class:`~.base.StepWorkspace` buffer
  via ``out=``, so a steady-state step performs no large allocations.

Every transformation is bitwise-neutral: only commutations of float
multiplies, skipped ``+ 0.0`` / ``* 1.0`` identities, and sign propagation
through exact negation are used — divisions stay divisions.  The test suite
asserts bitwise identity of the evolved state against the baseline backend.
"""

from __future__ import annotations

import numpy as np

from ... import constants
from ...physics import eos
from ...physics.fluxes import (
    axial_inviscid_into,
    primitives_into,
    radial_inviscid_into,
)
from ...physics.viscous import gradient_axis
from .base import KernelBackend, StepWorkspace


class FusedBackend(KernelBackend):
    """In-place kernels over a preallocated workspace (bitwise-identical)."""

    name = "fused"

    def step_workspace(self, solver, shape=None) -> StepWorkspace:
        viscous = bool(solver.fm.mu)
        mu_field = viscous and solver.config.mu_exponent != 0.0
        return StepWorkspace(
            shape or solver.state.q.shape, viscous, mu_field=mu_field
        )


def _mu(fm, ws: StepWorkspace):
    """Viscosity at the workspace temperature (scalar when constant)."""
    exp = fm.config.mu_exponent
    if exp == 0.0:
        return fm.mu
    np.power(ws.T, exp, out=ws.mu)
    np.multiply(ws.mu, fm.mu, out=ws.mu)
    return ws.mu


def _two_thirds_dilatation(ws: StepWorkspace, r: np.ndarray) -> None:
    """``ws.dilat <- (2/3)(du/dx + dv/dr + v/r)``; ``ws.t2a`` keeps ``v/r``.

    Matches ``stress_tensor`` term for term: the sum associates as
    ``(du_dx + dv_dr) + v_over_r`` and ``v/r`` stays a true division.
    """
    np.divide(ws.v, r[None, :], out=ws.t2a)
    np.add(ws.g_ux, ws.g_vr, out=ws.dilat)
    np.add(ws.dilat, ws.t2a, out=ws.dilat)
    np.multiply(ws.dilat, 2.0 / 3.0, out=ws.dilat)


def _heat_flux(g_t: np.ndarray, mu, gamma: float, out: np.ndarray) -> np.ndarray:
    """``-k dT/dxi`` with ``k = mu / ((gamma - 1) Pr)`` into ``out``."""
    k = eos.conductivity(mu, gamma, constants.PRANDTL)
    if np.isscalar(k) or np.ndim(k) == 0:
        np.multiply(g_t, -k, out=out)
    else:
        # -(k x) and (-k) x differ only in the sign bit computation, which
        # is exact for IEEE multiplication.
        np.multiply(g_t, k, out=out)
        np.negative(out, out=out)
    return out


def _subtract_viscous(
    flux: np.ndarray,
    tau_normal,
    tau_shear,
    heat,
    u: np.ndarray,
    v: np.ndarray,
    normal_row: int,
    shear_row: int,
    ws: StepWorkspace,
) -> None:
    """``flux -= (0, tau_n, tau_s, u tau_n' + v tau_s' - heat)`` in place.

    ``normal_row``/``shear_row`` say where the normal stress lands (row 1
    for the axial flux, row 2 for the radial one).  Row 0 of the viscous
    flux is identically zero, so the baseline's ``F[0] -= 0.0`` is skipped
    (``x - 0.0`` is a bitwise identity).
    """
    if normal_row == 1:  # axial: Fv[3] = u tau_xx + v tau_xr - heat_x
        np.multiply(u, tau_normal, out=ws.t2a)
        np.multiply(v, tau_shear, out=ws.t2b)
    else:  # radial: Gv[3] = u tau_xr + v tau_rr - heat_r
        np.multiply(u, tau_shear, out=ws.t2a)
        np.multiply(v, tau_normal, out=ws.t2b)
    np.add(ws.t2a, ws.t2b, out=ws.t2a)
    np.subtract(ws.t2a, heat, out=ws.t2a)
    np.subtract(flux[normal_row], tau_normal, out=flux[normal_row])
    np.subtract(flux[shear_row], tau_shear, out=flux[shear_row])
    np.subtract(flux[3], ws.t2a, out=flux[3])


def fused_axial_flux(fm, q: np.ndarray, ws: StepWorkspace) -> np.ndarray:
    """Total axial flux into ``ws.F``, bitwise equal to ``FluxModel.axial_flux``."""
    viscous = bool(fm.mu)
    primitives_into(
        q, fm.gamma, ws.inv_rho, ws.u, ws.v, ws.p, ws.t2a, ws.t2b,
        T=ws.T if viscous else None,
    )
    F = axial_inviscid_into(q, ws.u, ws.v, ws.p, ws.F, ws.t2a)
    if not viscous:
        return F
    mu = _mu(fm, ws)
    # The axial flux needs tau_xx, tau_xr and heat_x only, i.e. every
    # gradient except dT/dr.
    gradient_axis(ws.u, fm.dx, 0, out=ws.g_ux)
    gradient_axis(ws.u, fm.dr, 1, out=ws.g_ur)
    gradient_axis(ws.v, fm.dx, 0, out=ws.g_vx)
    gradient_axis(ws.v, fm.dr, 1, out=ws.g_vr)
    gradient_axis(ws.T, fm.dx, 0, out=ws.g_t)
    _two_thirds_dilatation(ws, fm.r)
    # tau_xx = mu (2 du/dx - (2/3) dilatation)
    np.multiply(ws.g_ux, 2.0, out=ws.tau_n)
    np.subtract(ws.tau_n, ws.dilat, out=ws.tau_n)
    np.multiply(ws.tau_n, mu, out=ws.tau_n)
    # tau_xr = mu (du/dr + dv/dx)
    np.add(ws.g_ur, ws.g_vx, out=ws.tau_s)
    np.multiply(ws.tau_s, mu, out=ws.tau_s)
    heat_x = _heat_flux(ws.g_t, mu, fm.gamma, ws.heat)
    _subtract_viscous(F, ws.tau_n, ws.tau_s, heat_x, ws.u, ws.v, 1, 2, ws)
    return F


def fused_radial_flux(fm, q: np.ndarray, ws: StepWorkspace):
    """Weighted radial flux into ``ws.F`` plus the source ``ws.S``.

    Bitwise equal to ``FluxModel.radial_flux``; the source array's rows 0,
    1 and 3 are zero-initialised once at workspace construction and only
    row 2 (``p - tau_tt``) is rewritten per call.
    """
    viscous = bool(fm.mu)
    primitives_into(
        q, fm.gamma, ws.inv_rho, ws.u, ws.v, ws.p, ws.t2a, ws.t2b,
        T=ws.T if viscous else None,
    )
    G = radial_inviscid_into(q, ws.u, ws.v, ws.p, ws.F, ws.t2a)
    if viscous:
        mu = _mu(fm, ws)
        # The radial flux needs tau_rr, tau_xr, tau_tt and heat_r, i.e.
        # every gradient except dT/dx.
        gradient_axis(ws.u, fm.dx, 0, out=ws.g_ux)
        gradient_axis(ws.u, fm.dr, 1, out=ws.g_ur)
        gradient_axis(ws.v, fm.dx, 0, out=ws.g_vx)
        gradient_axis(ws.v, fm.dr, 1, out=ws.g_vr)
        gradient_axis(ws.T, fm.dr, 1, out=ws.g_t)
        _two_thirds_dilatation(ws, fm.r)
        # tau_rr = mu (2 dv/dr - (2/3) dilatation)
        np.multiply(ws.g_vr, 2.0, out=ws.tau_n)
        np.subtract(ws.tau_n, ws.dilat, out=ws.tau_n)
        np.multiply(ws.tau_n, mu, out=ws.tau_n)
        # tau_xr = mu (du/dr + dv/dx)
        np.add(ws.g_ur, ws.g_vx, out=ws.tau_s)
        np.multiply(ws.tau_s, mu, out=ws.tau_s)
        # tau_tt = mu (2 v/r - (2/3) dilatation); ws.t2a still holds v/r.
        np.multiply(ws.t2a, 2.0, out=ws.tau_tt)
        np.subtract(ws.tau_tt, ws.dilat, out=ws.tau_tt)
        np.multiply(ws.tau_tt, mu, out=ws.tau_tt)
        heat_r = _heat_flux(ws.g_t, mu, fm.gamma, ws.heat)
        _subtract_viscous(G, ws.tau_n, ws.tau_s, heat_r, ws.u, ws.v, 2, 1, ws)
    if not fm.config.axisymmetric:
        return G, ws.S  # planar: unweighted flux, all-zero source
    np.multiply(G, fm.weight, out=G)
    if viscous:
        np.subtract(ws.p, ws.tau_tt, out=ws.S[2])
    else:
        np.copyto(ws.S[2], ws.p)  # p - 0.0 is a bitwise identity
    return G, ws.S
