"""The split Gottlieb-Turkel 2-4 MacCormack operators L1 and L2.

Each :class:`SplitOperator` advances the full time step ``dt`` along one
direction.  For the axial direction the split equation is ``q_t + F_x = 0``
(the ``r`` weight is constant along ``x`` and cancels); for the radial
direction it is ``q_t = (S - (r G)_r) / r`` with the axisymmetric source
``S = (0, 0, p - tau_tt, 0)``.

``L1`` uses the forward one-sided difference in the predictor and the
backward one in the corrector::

    q*      = q   + dt * (S(q)  - D+ flux(q) ) / w
    q^{n+1} = 1/2 [ q + q* + dt * (S(q*) - D- flux(q*)) / w ]

and ``L2`` swaps the two.  Alternating ``L1x L1r`` with ``L2r L2x`` makes the
composite scheme fourth-order in space and second-order in time (Gottlieb &
Turkel 1976).

The operator is deliberately ignorant of physics and parallelism: a
:class:`SweepWorkspace` supplies the flux/source evaluation and the ghost
planes for the one-sided stencils — cubic extrapolation (paper's
artificial points), the axis mirror or a periodic wrap.  The distributed
solver runs the same operators on its halo-extended block.  These are the
baseline and fused backends' operators; the compiled backend runs the same
sequence as one C call per sweep (``k_sweep``) and is held to them bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..obs import current
from .stencils import backward_difference, extend_axis, forward_difference

#: Phase labels passed to workspace hooks.
PREDICTOR = "predictor"
CORRECTOR = "corrector"


@dataclass
class SweepScratch:
    """Preallocated buffers for one sweep direction (fused kernel backend).

    All arrays are caller-owned and persist across steps; the two sweep
    directions of a solver may share ``q_star``/``rate``/``tmp`` (the sweeps
    run sequentially) but each needs its own ``ext`` because the
    ghost-extended shape depends on the sweep axis.

    Attributes
    ----------
    ext:
        Ghost-extended flux buffer — state shape with the sweep axis grown
        by 4 (two ghost planes each side).
    q_star:
        Predicted state, state-shaped.
    rate:
        ``dq/dt`` accumulator, state-shaped.
    tmp:
        State-shaped scratch for the one-sided difference.
    """

    ext: np.ndarray
    q_star: np.ndarray
    rate: np.ndarray
    tmp: np.ndarray


@dataclass
class SweepWorkspace:
    """Pluggable flux evaluation and ghost supply for one sweep direction.

    Attributes
    ----------
    flux:
        ``flux(q, phase) -> (weighted_flux, source_or_None)``.  The flux must
        already include the ``r`` weight for radial sweeps and viscous
        contributions for Navier-Stokes.
    low_ghosts, high_ghosts:
        ``f(flux_array, phase) -> ndarray of shape (2, ...) or None``.
        ``None`` selects cubic extrapolation.  Ordered outward (nearest
        ghost first).
    inv_weight:
        ``1/r`` broadcastable to the state shape for radial sweeps, ``1.0``
        for axial sweeps.
    scratch:
        Optional :class:`SweepScratch` enabling the zero-allocation path of
        :meth:`SplitOperator.apply` (requires the caller to pass ``out``).
        When set, the ``flux`` callable must return arrays that do not alias
        the scratch buffers.  ``None`` keeps the allocating behaviour.
    """

    flux: Callable[[np.ndarray, str], tuple[np.ndarray, Optional[np.ndarray]]]
    low_ghosts: Callable[[np.ndarray, str], Optional[np.ndarray]] = (
        lambda flux, phase: None
    )
    high_ghosts: Callable[[np.ndarray, str], Optional[np.ndarray]] = (
        lambda flux, phase: None
    )
    inv_weight: np.ndarray | float = 1.0
    scratch: Optional[SweepScratch] = None


@dataclass
class SplitOperator:
    """One-dimensional 2-4 MacCormack operator along a given array axis.

    Parameters
    ----------
    axis:
        Array axis the sweep differences along (1 = axial, 2 = radial for
        ``(4, nx, nr)`` state arrays).
    h:
        Grid spacing along that axis.
    variant:
        1 for ``L1`` (forward predictor), 2 for ``L2`` (backward predictor).
    workspace:
        The physics/ghost plumbing (see :class:`SweepWorkspace`).
    """

    axis: int
    h: float
    variant: int
    workspace: SweepWorkspace

    def __post_init__(self) -> None:
        if self.variant not in (1, 2):
            raise ValueError(f"variant must be 1 or 2, got {self.variant}")

    def _difference(self, flux: np.ndarray, phase: str) -> np.ndarray:
        ws = self.workspace
        forward = (self.variant == 1) == (phase == PREDICTOR)
        ext = extend_axis(
            flux,
            self.axis,
            low=ws.low_ghosts(flux, phase),
            high=ws.high_ghosts(flux, phase),
        )
        if forward:
            return forward_difference(ext, self.axis, self.h)
        return backward_difference(ext, self.axis, self.h)

    def _rate(self, q: np.ndarray, phase: str) -> np.ndarray:
        """``dq/dt`` for this split direction: ``(S - D flux) / w``."""
        ws = self.workspace
        flux, source = ws.flux(q, phase)
        d = self._difference(flux, phase)
        if source is None:
            rate = -d
        else:
            rate = source - d
        return rate * ws.inv_weight

    def _rate_into(self, q: np.ndarray, phase: str, sc: SweepScratch) -> np.ndarray:
        """Zero-allocation ``_rate``: bitwise-identical, into ``sc.rate``."""
        ws = self.workspace
        flux, source = ws.flux(q, phase)
        forward = (self.variant == 1) == (phase == PREDICTOR)
        lo = ws.low_ghosts(flux, phase)
        hi = ws.high_ghosts(flux, phase)
        ext = extend_axis(flux, self.axis, low=lo, high=hi, out=sc.ext)
        diff = forward_difference if forward else backward_difference
        d = diff(ext, self.axis, self.h, out=sc.rate, tmp=sc.tmp)
        if source is None:
            np.negative(d, out=d)
        else:
            np.subtract(source, d, out=d)
        iw = ws.inv_weight
        # Skip the identity weight (x * 1.0 == x bitwise); radial sweeps
        # carry the 1/r array and multiply in place.
        if not (isinstance(iw, float) and iw == 1.0):
            np.multiply(d, iw, out=d)
        return d

    def apply(
        self, q: np.ndarray, dt: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Advance ``q`` by ``dt`` along this direction.

        Without ``out`` the result is a fresh array (the baseline path).
        With ``out`` (and ``workspace.scratch`` set) every intermediate is
        written into preallocated buffers and the result lands in ``out``;
        the two paths are bitwise-identical.  ``out`` must not alias ``q``.
        """
        obs = current()
        sc = self.workspace.scratch
        if out is None or sc is None:
            with obs.span("maccormack.predictor", axis=self.axis):
                q_star = q + dt * self._rate(q, PREDICTOR)
            with obs.span("maccormack.corrector", axis=self.axis):
                return 0.5 * (q + q_star + dt * self._rate(q_star, CORRECTOR))
        if out is q:
            raise ValueError("apply(out=...) must not alias the input state")
        with obs.span("maccormack.predictor", axis=self.axis):
            rate = self._rate_into(q, PREDICTOR, sc)
            np.multiply(rate, dt, out=rate)
            np.add(q, rate, out=sc.q_star)
        with obs.span("maccormack.corrector", axis=self.axis):
            rate = self._rate_into(sc.q_star, CORRECTOR, sc)
            np.add(q, sc.q_star, out=out)
            np.multiply(rate, dt, out=rate)
            np.add(out, rate, out=out)
            np.multiply(out, 0.5, out=out)
            return out
