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
solver runs the same operators on its halo-extended block.
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
        by 4 (two ghost planes each side).  ``None`` with ``ops``.
    q_star:
        Predicted state, state-shaped.
    rate:
        ``dq/dt`` accumulator, state-shaped.
    tmp:
        State-shaped scratch for the one-sided difference.  ``None`` with
        ``ops``.
    ops:
        Compiled kernel ops (``None`` for the fused numpy path).  When
        set, the one-sided difference + source/weight chain and the
        predictor/corrector combine that follows run as one native pass
        that never stores the rate — bitwise-identical to the ufunc chains
        it replaces.
    """

    ext: np.ndarray | None
    q_star: np.ndarray
    rate: np.ndarray
    tmp: np.ndarray | None
    ops: object | None = None


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
    fix_state:
        Optional hook applied to the predicted state before the corrector
        flux evaluation (used to pin Dirichlet boundaries mid-step).
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
    fix_state: Callable[[np.ndarray, str], np.ndarray] = lambda q, phase: q
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

    def _rate_into(
        self,
        q: np.ndarray,
        phase: str,
        sc: SweepScratch,
        mode: int = 0,
        q0: np.ndarray | None = None,
        dt: float = 0.0,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Zero-allocation ``_rate``: bitwise-identical, into ``sc.rate``.

        With compiled ops the kernel can also fold the combine that
        follows, so the rate is never stored: ``mode`` 1 returns the
        predicted state ``q0 + dt*rate`` (``q`` is ``q0``), ``mode`` 2 the
        corrected one ``0.5*((q0 + q) + dt*rate)`` (``q`` is the predicted
        state), each in ``out``.
        """
        ws = self.workspace
        flux, source = ws.flux(q, phase)
        forward = (self.variant == 1) == (phase == PREDICTOR)
        if sc.ops is not None:
            # Compiled path: the ghost extension is folded into the rate
            # kernel, which consumes the one boundary the one-sided stencil
            # reaches past.
            ghosts = ws.high_ghosts if forward else ws.low_ghosts
            d = sc.ops.rate(
                flux, ghosts(flux, phase), self.axis, self.h, forward, source,
                ws.inv_weight, sc.rate if out is None else out, mode, q0, q, dt,
            )
        else:
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
        ws = self.workspace
        sc = ws.scratch
        if out is None or sc is None:
            with obs.span("maccormack.predictor", axis=self.axis):
                q_star = q + dt * self._rate(q, PREDICTOR)
                q_star = ws.fix_state(q_star, PREDICTOR)
            with obs.span("maccormack.corrector", axis=self.axis):
                q_new = 0.5 * (q + q_star + dt * self._rate(q_star, CORRECTOR))
                return ws.fix_state(q_new, CORRECTOR)
        if out is q:
            raise ValueError("apply(out=...) must not alias the input state")
        with obs.span("maccormack.predictor", axis=self.axis):
            if sc.ops is not None:
                self._rate_into(
                    q, PREDICTOR, sc, mode=1, q0=q, dt=dt, out=sc.q_star
                )
            else:
                rate = self._rate_into(q, PREDICTOR, sc)
                np.multiply(rate, dt, out=rate)
                np.add(q, rate, out=sc.q_star)
            q_star = ws.fix_state(sc.q_star, PREDICTOR)
        with obs.span("maccormack.corrector", axis=self.axis):
            if sc.ops is not None:
                self._rate_into(q_star, CORRECTOR, sc, mode=2, q0=q, dt=dt, out=out)
            else:
                rate = self._rate_into(q_star, CORRECTOR, sc)
                np.add(q, q_star, out=out)
                np.multiply(rate, dt, out=rate)
                np.add(out, rate, out=out)
                np.multiply(out, 0.5, out=out)
            return ws.fix_state(out, CORRECTOR)
