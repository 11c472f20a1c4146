"""Jet mean inflow profile and time-periodic excitation (paper Section 3).

The mean inflow is the classic tanh shear-layer profile

.. math::

    g(r) = \\tfrac12 \\Big[ 1 + \\tanh\\Big( \\frac{1}{4\\theta}
            \\big( \\frac{1}{r} - r \\big) \\Big) \\Big],

(with lengths in jet radii and ``theta`` the momentum thickness), together
with the Crocco-Busemann temperature profile the paper quotes:

.. math::

    T(r) = T_\\infty + (T_c - T_\\infty) g
           + \\tfrac{\\gamma - 1}{2} M_c^2 (1 - g) g.

Radial velocity is zero at inflow and static pressure is uniform, so density
follows from the EOS.  The excitation adds
``eps * Re(qhat(r) * exp(-i omega t))`` to the inflow primitives, where
``qhat`` comes from a linear-stability eigenmode
(:mod:`repro.physics.linearized`) and ``omega = pi * St * M_jet`` is the
angular frequency of Strouhal number ``St`` based on jet diameter and
centerline velocity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import constants
from .linearized import Eigenmode, GaussianEigenmode


def shear_layer_shape(r: np.ndarray, theta: float) -> np.ndarray:
    """The tanh shape function ``g(r)``; 1 on the axis, 0 in the far field."""
    r = np.asarray(r, dtype=np.float64)
    return 0.5 * (1.0 + np.tanh((1.0 / r - r) / (4.0 * theta)))


@dataclass(frozen=True)
class JetProfile:
    """Mean inflow profile of the excited axisymmetric jet.

    Parameters
    ----------
    mach:
        Jet centerline Mach number (paper: 1.5).
    theta:
        Momentum thickness of the shear layer in jet radii.
    temperature_ratio:
        ``T_c / T_inf`` (paper: 2).
    coflow:
        Freestream axial velocity ``u_inf`` in sound-speed units
        (0 for a quiescent ambient).
    """

    mach: float = constants.JET_MACH
    theta: float = constants.MOMENTUM_THICKNESS
    temperature_ratio: float = constants.TEMPERATURE_RATIO
    coflow: float = 0.0
    gamma: float = constants.GAMMA

    @property
    def u_centerline(self) -> float:
        """Centerline axial velocity in sound-speed units (= Mach)."""
        return self.mach

    @property
    def t_infinity(self) -> float:
        """Freestream temperature ``T_inf = T_c / ratio`` with ``T_c = 1``."""
        return 1.0 / self.temperature_ratio

    @property
    def pressure(self) -> float:
        """Uniform inflow static pressure ``1/gamma``."""
        return 1.0 / self.gamma

    def velocity(self, r: np.ndarray) -> np.ndarray:
        """Mean axial velocity ``U(r)``."""
        g = shear_layer_shape(r, self.theta)
        return self.coflow + (self.u_centerline - self.coflow) * g

    def temperature(self, r: np.ndarray) -> np.ndarray:
        """Crocco-Busemann temperature ``T(r)``."""
        g = shear_layer_shape(r, self.theta)
        t_inf = self.t_infinity
        return (
            t_inf
            + (1.0 - t_inf) * g
            + 0.5 * (self.gamma - 1.0) * self.mach**2 * (1.0 - g) * g
        )

    def density(self, r: np.ndarray) -> np.ndarray:
        """Mean density from uniform pressure: ``rho = gamma p / T = 1/T``."""
        return self.gamma * self.pressure / self.temperature(r)

    def primitives(self, r: np.ndarray):
        """``(rho, u, v, p)`` mean profiles on the radial stations ``r``."""
        rho = self.density(r)
        u = self.velocity(r)
        v = np.zeros_like(u)
        p = np.full_like(u, self.pressure)
        return rho, u, v, p


@dataclass
class InflowExcitation:
    """Time-periodic eigenfunction forcing applied at the inflow plane.

    ``primitives(r, t)`` returns the instantaneous ``(rho, u, v, p)``:
    the mean profile plus ``eps * Re(qhat exp(-i omega t))``.

    The default eigenmode is the analytic Gaussian shear-layer bump
    (see :class:`repro.physics.linearized.GaussianEigenmode`); passing a
    mode from :func:`repro.physics.linearized.solve_temporal_mode` uses the
    discrete linear-stability eigenfunctions instead.
    """

    profile: JetProfile
    strouhal: float = constants.STROUHAL
    epsilon: float = constants.EXCITATION_LEVEL
    mode: Eigenmode | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def omega(self) -> float:
        """Angular frequency: ``omega = 2 pi f`` with ``f = St * U_c / D``.

        Diameter ``D = 2`` in jet radii, so ``omega = pi * St * M_jet``.
        """
        return np.pi * self.strouhal * self.profile.mach

    def _on(self, r: np.ndarray) -> tuple[tuple[np.ndarray, ...], ...]:
        """The mean profile and the eigenmode on ``r``: both depend on
        ``r`` alone, so a step pays only the excitation's time factor."""
        key = (r.shape, float(r[0]), float(r[-1]))
        if key not in self._cache:
            mode = self.mode
            if mode is None:
                mode = GaussianEigenmode(theta=self.profile.theta)
            self._cache[key] = (self.profile.primitives(r), mode.evaluate(r))
        return self._cache[key]

    def primitives(self, r: np.ndarray, t: float):
        """Instantaneous inflow primitives ``(rho, u, v, p)`` at time ``t``."""
        if self.epsilon == 0.0:
            return self.profile.primitives(r)
        (rho0, u0, v0, p0), (rho_hat, u_hat, v_hat, p_hat) = self._on(
            np.asarray(r)
        )
        phase = np.exp(-1j * self.omega * t)
        eps = self.epsilon
        return (
            rho0 + eps * np.real(rho_hat * phase),
            u0 + eps * np.real(u_hat * phase),
            v0 + eps * np.real(v_hat * phase),
            p0 + eps * np.real(p_hat * phase),
        )
