"""Serial time-accurate solvers for the jet Navier-Stokes/Euler equations.

:class:`NavierStokesSolver` and :class:`EulerSolver` integrate the
axisymmetric equations with the alternated split 2-4 MacCormack scheme
(paper Section 3):

* even steps apply ``Q <- L1x( L1r(Q) )``,
* odd steps apply ``Q <- L2r( L2x(Q) )``,

each split operator advancing the full ``dt``.  After the sweeps the inflow
column is pinned to the excited jet profile at the new time, the outflow
column is advanced with the characteristic treatment, and an optional thin
sponge relaxes the far field.

A planar, optionally periodic mode (``SolverConfig(axisymmetric=False,
periodic_x=True, ...)``) exists purely for verification: on periodic
domains the scheme telescopes and conserves the state sums to round-off and
its spatial order of accuracy can be measured against smooth exact
solutions.  All benchmark experiments use the axisymmetric jet mode.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .. import constants
from ..grid import Grid
from ..obs import current, step_record
from ..physics import eos
from ..physics.fluxes import axisymmetric_source, inviscid_fluxes
from ..physics.state import FlowState
from ..physics.viscous import stress_tensor, viscous_fluxes
from .boundary import (
    AXIS_FLUX_SIGNS,
    AXIS_STATE_SIGNS,
    MIRROR,
    WRAP,
    BoundaryConditions,
    apply_axis_ghosts,
    characteristic_outflow_rates,
    ghost_rules,
)
from .kernels import (
    CompiledWorkspace,
    fused_axial_flux,
    fused_radial_flux,
    resolve_backend,
)
from .maccormack import PREDICTOR, SplitOperator, SweepWorkspace
from .stencils import extend_axis
from .timestep import SolutionDiverged, stable_dt


@dataclass
class SolverConfig:
    """Configuration shared by the serial and distributed solvers."""

    viscous: bool = True
    gamma: float = constants.GAMMA
    mu: float | None = None
    """Dynamic viscosity; ``None`` derives it from Mach/Reynolds."""
    mu_exponent: float = 0.0
    """Power-law temperature dependence ``mu(T) = mu_ref * T**exponent``
    (0 = constant viscosity, the configuration the paper's jet uses;
    ~0.7 approximates Sutherland over this temperature range)."""
    mach: float = constants.JET_MACH
    reynolds: float = constants.REYNOLDS
    cfl: float = 0.5
    dt: float | None = None
    """Fixed time step; ``None`` adapts from the CFL condition."""
    dt_recompute_every: int = 10
    """Steps between CFL re-evaluations when adapting."""
    axisymmetric: bool = True
    periodic_x: bool = False
    periodic_r: bool = False
    boundary: BoundaryConditions | None = None
    """Jet boundary bundle; ``None`` disables inflow/outflow/sponge
    treatment (test mode)."""
    dissipation: float = 0.02
    """Fourth-difference smoothing coefficient applied once per step.

    The 2-4 MacCormack scheme's built-in dissipation (from the alternating
    one-sided differences) is marginal for a Reynolds-1.2e6 shear layer at
    the paper's resolution; production codes of the era added a weak
    fourth-difference filter.  Applied in conservative difference form so
    periodic conservation is preserved; set to 0 to disable.
    """
    backend: str | None = None
    """Kernel backend name (``"baseline"``, ``"fused"`` or ``"compiled"``);
    ``None`` is ``"baseline"``.  Backends select *how* the hot-path
    kernels are evaluated, never what they compute: all backends are
    bitwise-identical (``"compiled"`` falls back to the fused kernels
    with a warning on hosts without a C toolchain)."""

    def viscosity(self) -> float:
        if not self.viscous:
            return 0.0
        if self.mu is not None:
            return self.mu
        return eos.viscosity(mach=self.mach, reynolds=self.reynolds)


class FluxModel:
    """Evaluates the total (inviscid + viscous) split fluxes on any slab.

    Shared verbatim by the serial solver and every rank of the distributed
    solver, which calls it on its halo-extended block — the ghost lines
    are in the array, so the gradients at the owned cells reproduce the
    serial interior arithmetic exactly.
    """

    def __init__(self, r: np.ndarray, dx: float, dr: float, config: SolverConfig):
        self.r = np.asarray(r, dtype=np.float64)
        self.dx = dx
        self.dr = dr
        self.config = config
        self.mu = config.viscosity()
        self.gamma = config.gamma
        # Radial weight for the r-sweep; 1 in planar mode.
        if config.axisymmetric:
            self.weight = self.r[None, None, :]
        else:
            self.weight = np.ones((1, 1, self.r.size))

    def primitives(self, q: np.ndarray):
        """``(u, v, T)`` from the conservative array."""
        rho = q[0]
        inv_rho = 1.0 / rho
        u = q[1] * inv_rho
        v = q[2] * inv_rho
        p = (self.gamma - 1.0) * (q[3] - 0.5 * (q[1] * u + q[2] * v))
        T = self.gamma * p * inv_rho
        return u, v, T

    def _mu_field(self, T: np.ndarray):
        """Viscosity at the local temperature (scalar when constant)."""
        exp = self.config.mu_exponent
        if exp == 0.0:
            return self.mu
        return self.mu * T**exp

    def _viscous(self, q: np.ndarray):
        u, v, T = self.primitives(q)
        terms = stress_tensor(
            u, v, T, self.r, self.dx, self.dr, self._mu_field(T), self.gamma
        )
        return u, v, terms

    def axial_flux(self, q: np.ndarray, ws=None) -> np.ndarray:
        """Total axial flux ``F`` (no radial weight: r is constant in x).

        ``ws`` selects the workspace's zero-allocation fused numpy kernels
        (result in ``ws.F``, bitwise-identical); a compiled step evaluates
        its fluxes inside its sweep plans and never calls this.
        """
        if ws is not None:
            return fused_axial_flux(self, q, ws)
        F, _G, _p = inviscid_fluxes(q, self.gamma)
        if self.mu:
            u, v, terms = self._viscous(q)
            Fv, _Gv = viscous_fluxes(u, v, terms)
            F -= Fv
        return F

    def radial_flux(self, q: np.ndarray, ws=None) -> tuple[np.ndarray, np.ndarray]:
        """Weighted radial flux ``r G`` and source ``S = (0,0,p - tau_tt,0)``.

        In planar mode the weight is 1 and the geometric source is absent.
        ``ws`` as in :meth:`axial_flux`.
        """
        if ws is not None:
            return fused_radial_flux(self, q, ws)
        _F, G, p = inviscid_fluxes(q, self.gamma)
        tau_tt: np.ndarray | float = 0.0
        if self.mu:
            u, v, terms = self._viscous(q)
            _Fv, Gv = viscous_fluxes(u, v, terms)
            G -= Gv
            tau_tt = terms.tau_tt
        if not self.config.axisymmetric:
            return G, np.zeros_like(q)
        return self.weight * G, axisymmetric_source(q, p, tau_tt)


def _wrap_ghosts(
    flux: np.ndarray, axis: int, side: str, out: np.ndarray | None = None
) -> np.ndarray:
    """Periodic ghost planes (ordered outward, nearest first), into ``out``
    when a workspace supplies the ``(2, nvars, plane)`` buffer."""
    if side == "low":
        idx = [-1, -2]
    else:
        idx = [0, 1]
    sl = [slice(None)] * flux.ndim
    planes = []
    for k in idx:
        sl[axis] = k
        planes.append(flux[tuple(sl)])
    return np.stack(planes, out=out)


class CompressibleSolver:
    """Serial integrator; see the module docstring for the step structure.

    Parameters
    ----------
    state:
        Initial :class:`~repro.physics.state.FlowState` (mutated in place).
    config:
        :class:`SolverConfig`.  ``config.boundary`` supplies the jet inflow
        excitation, outflow treatment and sponge.  ``config.backend``
        selects the kernel backend (see :mod:`repro.numerics.kernels`).
    """

    #: Which physical boundaries this solver's block touches — all of them
    #: serially; a distributed rank reads them off its neighbour map.  The
    #: boundary treatments below run only on the sides that are owned.
    _owns_inflow = _owns_outflow = _owns_far_field = True

    def __init__(self, state: FlowState, config: SolverConfig | None = None):
        self.state = state
        self.grid: Grid = state.grid
        self.config = config or SolverConfig()
        self.fm = FluxModel(self.grid.r, self.grid.dx, self.grid.dr, self.config)
        self.t = 0.0
        self.nstep = 0
        self._dt_cached: float | None = None
        self.wall_time = 0.0
        #: Rank attributed to this solver's trace spans (the distributed
        #: solver overrides it with the communicator rank).
        self._trace_rank = 0
        #: Split operators cached per variant (their workspaces read mutable
        #: state lazily, so reuse is safe).  Also holds the outflow helper's
        #: radial operator under ("ofw", variant).
        self._ops_cache: dict = {}
        #: Filter index tuples cached per axis (rebuilt-per-step before).
        self._filter_ix: dict[int, list[tuple]] = {}
        cfg = self.config
        if cfg.axisymmetric:
            self._inv_weight = 1.0 / self.grid.r[None, None, :]
        else:
            self._inv_weight = 1.0
        bc = cfg.boundary
        if bc is not None and bc.inflow is not None:
            self._ambient_col = bc.inflow_column(self.grid.r, 0.0, cfg.gamma)
            # Ambient for the sponge: the freestream (g -> 0) state.
            prof = bc.inflow.profile
            t_inf = prof.t_infinity
            rho_inf = cfg.gamma * prof.pressure / t_inf
            amb = np.empty_like(self._ambient_col)
            amb[0] = rho_inf
            amb[1] = rho_inf * prof.coflow
            amb[2] = 0.0
            amb[3] = eos.total_energy(
                rho_inf, prof.coflow, 0.0, prof.pressure, cfg.gamma
            )
            self._sponge_col = amb
        else:
            self._sponge_col = None
        self.backend = resolve_backend(cfg.backend)
        nvars, nx, nr = state.q.shape
        #: The same backend's kernels over the outflow helper's 5-column
        #: window (the shape of the ``q_tail`` strip it is handed).
        self._ws_window = self.backend.step_workspace(
            self, shape=(nvars, min(5, nx), nr)
        )
        self._ws = self.backend.step_workspace(self)
        #: A compiled workspace runs the step's sweeps, filter and
        #: boundaries from its plans, one foreign call each.
        self._native = self._ws if isinstance(self._ws, CompiledWorkspace) else None

    # -- sweep plumbing ------------------------------------------------------
    # The sweep closures below capture the flux model and the workspace,
    # never ``self``: the operators they end up in are cached on the solver
    # (``_ops_cache``), so a closure over ``self`` would be a reference
    # cycle that keeps the whole workspace alive until a gen-2 collection.
    def _ghosts(self, axis: int, ws, signs=AXIS_FLUX_SIGNS):
        """The ``(low, high)`` ghost suppliers of ``boundary.ghost_rules``
        along ``axis`` — ``(f, phase) -> planes``, ``None`` for cubic
        extrapolation — writing into ``ws``'s ghost buffers when given."""
        bufs = ws.ghosts[axis] if ws is not None else (None, None)

        def supplier(rule, side, out):
            if rule == WRAP:
                return lambda f, ph=None: _wrap_ghosts(f, axis, side, out)
            if rule == MIRROR:
                return lambda f, ph=None: apply_axis_ghosts(f, out, signs)
            return lambda f, ph=None: None

        rules = ghost_rules(self.config, axis)
        return tuple(map(supplier, rules, ("low", "high"), bufs))

    def _sweep_workspace(self, axis: int, ws) -> SweepWorkspace:
        """The sweep along ``axis`` on the kernels of ``ws``: the state's
        workspace for the step's own sweeps, the window's for the outflow
        helper, ``None`` for the allocating reference kernels."""
        fm = self.fm
        low, high = self._ghosts(axis, ws)
        if axis == 1:
            flux, iw = (lambda q, ph: (fm.axial_flux(q, ws=ws), None)), 1.0
        else:
            flux, iw = (lambda q, ph: fm.radial_flux(q, ws=ws)), self._inv_weight
        return SweepWorkspace(
            flux=flux, low_ghosts=low, high_ghosts=high, inv_weight=iw,
            scratch=None if ws is None else (ws.sweep_x, ws.sweep_r)[axis - 1],
        )

    def _operators(self, variant: int):
        if self._native is not None:
            return self._native.sweeps[variant]
        return tuple(
            SplitOperator(axis, h, variant, self._sweep_workspace(axis, self._ws))
            for axis, h in ((1, self.grid.dx), (2, self.grid.dr))
        )

    def _cached_operators(self, variant: int):
        """The per-variant operator pair, constructed once and reused."""
        ops = self._ops_cache.get(variant)
        if ops is None:
            ops = self._operators(variant)
            self._ops_cache[variant] = ops
        return ops

    # -- time step ------------------------------------------------------------
    def _dt_is_due(self) -> bool:
        """Whether this step re-evaluates the adaptive time step."""
        cfg = self.config
        return cfg.dt is None and (
            self._dt_cached is None
            or self.nstep % max(cfg.dt_recompute_every, 1) == 0
        )

    def current_dt(self) -> float:
        cfg = self.config
        if cfg.dt is not None:
            return cfg.dt
        if self._dt_is_due():
            self._dt_cached = self._stable_dt(self.state.q)
        return self._dt_cached

    def _stable_dt(self, q: np.ndarray) -> float:
        """``stable_dt`` of ``q`` under this solver's configuration; raises
        :class:`~repro.numerics.timestep.SolutionDiverged` naming the step
        when the estimate is not finite and positive."""
        cfg = self.config
        dt = stable_dt(
            q, self.grid.dx, self.grid.dr, cfl=cfg.cfl, mu=self.fm.mu, gamma=cfg.gamma
        )
        if not 0.0 < dt < np.inf:
            raise SolutionDiverged(self.nstep, dt)
        return dt

    # -- boundary updates -------------------------------------------------------
    def _outflow_rates(self, q: np.ndarray, variant: int) -> np.ndarray:
        """Interior conservative rates at the outflow column, shape (4, nr).

        Evaluated on the trailing 5-column window (which keeps the viscous
        x-gradients well-posed) by the step's own kernels: the window has
        its own workspace from the solver's backend, so a fused step stays
        in place; the baseline backend has no workspace and runs the
        allocating kernels (a compiled step runs this in ``k_boundaries``,
        on the window's buffers).  ``q`` is the
        :meth:`_boundary_snapshot` strip, the window workspace's own shape:
        a strip of another shape is a ``ValueError`` of the kernels.
        """
        # The snapshot strip is the window already; slicing it again would
        # hand the kernels a fresh view object every step.
        window = q if q.shape[1] <= 5 else q[:, -5:, :]
        ws = self._ws_window
        F = self.fm.axial_flux(window, ws=ws)
        h = self.grid.dx
        # Backward one-sided 2-4 difference at the last column.
        dF = (7.0 * (F[:, -1] - F[:, -2]) - (F[:, -2] - F[:, -3])) / (6.0 * h)
        # Radial contribution near the boundary via the split machinery.
        key = ("ofw", variant)
        Lr = self._ops_cache.get(key)
        if Lr is None:
            Lr = self._ops_cache[key] = SplitOperator(
                axis=2, h=self.grid.dr, variant=variant,
                workspace=self._sweep_workspace(2, ws),
            )
        if ws is None:
            rate = Lr._rate(np.ascontiguousarray(window), PREDICTOR)
        else:
            rate = Lr._rate_into(window, PREDICTOR, ws.sweep_r)
        return -dF + rate[:, -1, :]

    def _boundary_snapshot(self) -> np.ndarray | None:
        """Pre-step copy of the state strips the boundary update reads.

        The characteristic outflow is the only boundary treatment that
        reads the pre-step state, and every implementation reads at most
        the trailing five columns (``q[:, -5:, :]``); copying just that
        strip replaces the full-state copy the solver used to make each
        step.  Returns ``None`` when no snapshot is needed.
        """
        bc = self.config.boundary
        if bc is None or not (bc.characteristic_outflow and self._owns_outflow):
            return None
        q = self.state.q
        ws = self._ws
        if ws is not None:
            np.copyto(ws.q_tail, q[:, -ws.q_tail.shape[1] :, :])
            return ws.q_tail
        return q[:, -5:, :].copy()

    def _apply_boundaries(self, q_tail: np.ndarray | None, dt: float, variant: int):
        """Post-sweep boundary update.

        ``q_tail`` is the :meth:`_boundary_snapshot` strip — the trailing
        (up to) five pre-step columns, so ``q_tail[:, -5:, :]`` and
        ``q_tail[:, -1, :]`` mean the same thing they meant on the full
        pre-step array.
        """
        bc = self.config.boundary
        if bc is None:
            return
        q = self.state.q
        inflow = None
        if bc.inflow is not None and self._owns_inflow:
            inflow = bc.inflow_column(self.grid.r, self.t, self.config.gamma)
        if self._native is not None:
            self._native.boundaries(q, q_tail, inflow, dt, variant)
            return
        if bc.characteristic_outflow and self._owns_outflow:
            q_t = self._outflow_rates(q_tail, variant)
            rates = characteristic_outflow_rates(
                q_tail[:, -1, :], q_t, self.config.gamma
            )
            q[:, -1, :] = q_tail[:, -1, :] + dt * rates
        if inflow is not None:
            q[:, 0, :] = inflow
        if (
            bc.sponge is not None
            and self._sponge_col is not None
            and self._owns_far_field
        ):
            bc.sponge.apply(q, self._sponge_col)

    # -- fourth-difference filter -------------------------------------------------
    def _filter_indices(self, axis: int, n: int) -> list[tuple]:
        """The five stencil index tuples into the extended array, cached.

        These were rebuilt (as slice closures) on every step; the solver
        geometry is fixed, so one construction per axis suffices for both
        backends.
        """
        cached = self._filter_ix.get(axis)
        if cached is None:
            cached = []
            for off in (-2, -1, 0, 1, 2):
                sl: list = [slice(None)] * 3
                sl[axis] = slice(2 + off, 2 + off + n)
                cached.append(tuple(sl))
            self._filter_ix[axis] = cached
        return cached

    def apply_filter(self, q: np.ndarray, ws=None) -> np.ndarray:
        """One pass of the conservative fourth-difference smoothing.

        ``q <- q - eps * (q_{i-2} - 4 q_{i-1} + 6 q_i - 4 q_{i+1} + q_{i+2})``
        along each direction.  With cubic-extrapolated ghosts the fourth
        difference vanishes identically at smooth boundaries, so the filter
        acts only on marginally-resolved interior content.

        With a :class:`~repro.numerics.kernels.StepWorkspace` ``ws`` the
        filter runs in place on ``q`` using the workspace's extended and
        scratch buffers (which are free after the sweeps), bitwise-identical
        to the allocating form; a compiled ``ws`` runs it from its plan.
        The ghost planes are the state's (radial momentum odd at the axis).
        """
        eps = self.config.dissipation
        if eps <= 0.0:
            return q
        if isinstance(ws, CompiledWorkspace):
            return ws.filter(q, eps)
        for axis in (1, 2):
            low, high = (g(q) for g in self._ghosts(axis, ws, AXIS_STATE_SIGNS))
            ix = self._filter_indices(axis, q.shape[axis])
            if ws is None:
                ext = extend_axis(q, axis, low=low, high=high)
                d4 = (
                    ext[ix[0]]
                    - 4.0 * ext[ix[1]]
                    + 6.0 * ext[ix[2]]
                    - 4.0 * ext[ix[3]]
                    + ext[ix[4]]
                )
                q = q - eps * d4
                continue
            ext = (ws.ext_x, ws.ext_r)[axis - 1]
            ext = extend_axis(q, axis, low=low, high=high, out=ext)
            d4, tmp = ws.rate, ws.tmp3
            np.multiply(ext[ix[1]], 4.0, out=d4)
            np.subtract(ext[ix[0]], d4, out=d4)
            np.multiply(ext[ix[2]], 6.0, out=tmp)
            np.add(d4, tmp, out=d4)
            np.multiply(ext[ix[3]], 4.0, out=tmp)
            np.subtract(d4, tmp, out=d4)
            np.add(d4, ext[ix[4]], out=d4)
            np.multiply(d4, eps, out=d4)
            np.subtract(q, d4, out=q)
        return q

    # -- main loop ---------------------------------------------------------------
    def step(self) -> None:
        """Advance one time step (one ``L1x L1r`` or ``L2r L2x`` composite).

        With a fused-kernel workspace the two sweeps write into the
        workspace's ping-pong state buffers (the first sweep's output must
        not alias its input because predictor and corrector both read it;
        the second sweep may land back on the step's input, which is dead
        by then) and the filter runs in place — a steady-state step touches
        no fresh heap memory beyond small boundary lines.
        """
        obs = current()
        rank = self._trace_rank
        ws = self._ws
        t0 = _time.perf_counter()
        with obs.stages(rank, self.nstep) as stage:
            self._begin_step(stage)
            with stage("dt"):
                dt = self.current_dt()
            variant = 1 if self.nstep % 2 == 0 else 2
            Lx, Lr = self._cached_operators(variant)
            q_tail = self._boundary_snapshot()
            q = self.state.q
            outs = ws.rotate_states(q) if ws is not None else (None, None)
            # L1x(L1r(Q)) runs the radial sweep first, L2r(L2x(Q)) the axial.
            sweeps = (("sweep_r", Lr), ("sweep_x", Lx))
            if variant == 2:
                sweeps = sweeps[::-1]
            for (name, operator), out in zip(sweeps, outs):
                with stage(name):
                    q = operator.apply(q, dt, out=out)
            with stage("filter"):
                q = self.apply_filter(q, ws=ws)
            self.state.q = q
            self.t += dt
            self.nstep += 1
            with stage("boundaries"):
                self._apply_boundaries(q_tail, dt, variant)
        wall = _time.perf_counter() - t0
        self.wall_time += wall
        obs.step(
            rank, wall, q.shape[1] * q.shape[2],
            lambda: self._step_stream_record(dt, wall),
        )

    def _begin_step(self, stage) -> None:
        """Before the step's first stage, inside its wall: nothing to do
        serially; the distributed solver refreshes its halo here."""

    def _step_stream_record(self, dt: float, wall: float) -> dict:
        """One ``repro.stream/1`` progress record for the step just taken
        (distributed subclasses add comm/fault fields)."""
        return step_record(
            rank=self._trace_rank,
            step=self.nstep,
            t=self.t,
            dt=dt,
            ms=1e3 * wall,
        )

    def restore(self, nstep: int, t: float) -> None:
        """Resume the step/time counters after reloading checkpointed state.

        The caller has already placed the snapshot into ``self.state.q``
        (or constructed the solver from it); this re-aligns the step
        parity (which selects the MacCormack variant), the simulation
        time (which drives the inflow excitation), and invalidates the
        adaptive ``dt`` cache so the next step recomputes it from the
        restored state.
        """
        self.nstep = nstep
        self.t = t
        self._dt_cached = None

    def run(
        self,
        steps: int,
        monitor: Optional[Callable[["CompressibleSolver"], None]] = None,
        monitor_every: int = 100,
    ) -> FlowState:
        """Advance ``steps`` steps; optionally call ``monitor`` periodically."""
        for _ in range(steps):
            self.step()
            if monitor is not None and self.nstep % monitor_every == 0:
                monitor(self)
        return self.state


class NavierStokesSolver(CompressibleSolver):
    """Navier-Stokes jet solver (viscous terms on)."""

    def __init__(self, state: FlowState, config: SolverConfig | None = None):
        config = config or SolverConfig()
        config.viscous = True
        super().__init__(state, config)


class EulerSolver(CompressibleSolver):
    """Euler jet solver — the paper's second application (viscosity and
    heat conduction set to zero, ~50% of the Navier-Stokes computation)."""

    def __init__(self, state: FlowState, config: SolverConfig | None = None):
        config = config or SolverConfig()
        config.viscous = False
        super().__init__(state, config)
