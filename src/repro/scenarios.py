"""Canonical problem setups used by examples, tests and benchmarks.

``jet_scenario`` reproduces the paper's configuration: a Mach-1.5
axisymmetric jet excited at Strouhal number 1/8 on a 50 x 5 radii domain.
The verification scenarios (periodic advection, acoustic pulse, shock tube)
exist to validate the numerics against known solutions; they run the same
solver in planar/periodic modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import constants
from .grid import Grid
from .numerics.boundary import BoundaryConditions, Sponge
from .numerics.solver import (
    CompressibleSolver,
    EulerSolver,
    NavierStokesSolver,
    SolverConfig,
)
from .physics.jet import InflowExcitation, JetProfile
from .physics.state import FlowState


@dataclass
class Scenario:
    """A ready-to-run bundle of grid, initial state, and solver.

    The initial state and the solver are built on first access to
    :attr:`state` and :attr:`solver`: a run reads ``solver_cls`` and
    ``config`` and builds the one solver it steps, and a simulated run
    reads neither."""

    grid: Grid
    initial_state: Callable[[], FlowState]
    solver_cls: type[CompressibleSolver]
    config: SolverConfig
    name: str = ""

    @cached_property
    def state(self) -> FlowState:
        return self.initial_state()

    @cached_property
    def solver(self) -> CompressibleSolver:
        return self.solver_cls(self.state, self.config)

    def run(self, steps: int, **kw):
        """Run this scenario through :func:`repro.api.run` (serial by
        default; pass ``nprocs=``/``platform=``/``trace=`` as usual)."""
        from .api import run

        return run(self, steps=steps, **kw)


def jet_initial_state(grid: Grid, profile: JetProfile) -> FlowState:
    """Initial field: the inflow mean profile swept downstream unchanged.

    This is the standard start for time-accurate jet simulations — the
    excitation then grows Kelvin-Helmholtz structures on top of it.
    """
    rho, u, v, p = profile.primitives(grid.r)
    return FlowState.from_primitive(
        grid,
        np.broadcast_to(rho[None, :], grid.shape),
        np.broadcast_to(u[None, :], grid.shape),
        np.broadcast_to(v[None, :], grid.shape),
        np.broadcast_to(p[None, :], grid.shape),
        gamma=profile.gamma,
    )


def jet_scenario(
    nx: int = 125,
    nr: int = 50,
    viscous: bool = True,
    mach: float = constants.JET_MACH,
    reynolds: float = constants.REYNOLDS,
    theta: float = constants.MOMENTUM_THICKNESS,
    strouhal: float = constants.STROUHAL,
    epsilon: float = constants.EXCITATION_LEVEL,
    use_stability_mode: bool = False,
    cfl: float = 0.5,
    sponge: Sponge | None = None,
) -> Scenario:
    """The paper's excited supersonic jet (Navier-Stokes or Euler).

    Defaults to half the paper's 250 x 100 resolution so examples run in
    seconds; pass ``nx=250, nr=100`` for the full configuration.
    ``use_stability_mode=True`` solves the linearized eigenproblem for the
    inflow eigenfunctions instead of the analytic Gaussian substitute.
    """
    grid = Grid(nx=nx, nr=nr)
    profile = JetProfile(mach=mach, theta=theta)
    mode = None
    if use_stability_mode:
        from .physics.linearized import solve_temporal_mode

        mode = solve_temporal_mode(profile, strouhal=strouhal)
    excitation = InflowExcitation(
        profile, strouhal=strouhal, epsilon=epsilon, mode=mode
    )
    bc = BoundaryConditions(
        inflow=excitation,
        characteristic_outflow=True,
        sponge=sponge if sponge is not None else Sponge(),
    )
    config = SolverConfig(
        viscous=viscous,
        mach=mach,
        reynolds=reynolds,
        cfl=cfl,
        boundary=bc,
    )
    state = partial(jet_initial_state, grid, profile)
    cls = NavierStokesSolver if viscous else EulerSolver
    return Scenario(grid, state, cls, config, name="jet-ns" if viscous else "jet-euler")


def periodic_advection_scenario(
    n: int = 32, mach: float = 0.5, amplitude: float = 1e-3
) -> Scenario:
    """Planar doubly-periodic advection of a smooth entropy/density wave.

    A uniform flow ``(u, v) = (M, 0)`` carries a sinusoidal density
    perturbation at constant pressure: the exact solution is pure advection,
    used for order-of-accuracy and conservation tests.
    """
    grid = Grid(nx=n, nr=n, length_x=1.0, length_r=1.0)
    # With wrap ghosts the true period is nx * dx (the nominal domain ends
    # one spacing short of a full wrap), so the wave uses that wavelength.
    x = grid.xmesh()
    wavelength = grid.nx * grid.dx
    rho = 1.0 + amplitude * np.sin(2.0 * np.pi * x / wavelength)
    p = 1.0 / constants.GAMMA
    state = partial(FlowState.from_primitive, grid, rho, mach, 0.0, p)
    config = SolverConfig(
        viscous=False,
        axisymmetric=False,
        periodic_x=True,
        periodic_r=True,
        boundary=None,
        cfl=0.4,
    )
    return Scenario(grid, state, EulerSolver, config, name="advection")


def acoustic_pulse_scenario(n: int = 64, amplitude: float = 1e-4) -> Scenario:
    """Planar periodic acoustic pulse for linear-wave propagation checks."""
    grid = Grid(nx=n, nr=n, length_x=1.0, length_r=1.0)
    x, r = grid.xmesh(), grid.rmesh()
    gauss = np.exp(-(((x - 0.5) ** 2 + (r - 0.5) ** 2) / 0.01))
    p = 1.0 / constants.GAMMA * (1.0 + amplitude * gauss)
    rho = (constants.GAMMA * p) ** (1.0 / constants.GAMMA)
    state = partial(FlowState.from_primitive, grid, rho, 0.0, 0.0, p)
    config = SolverConfig(
        viscous=False,
        axisymmetric=False,
        periodic_x=True,
        periodic_r=True,
        boundary=None,
        cfl=0.4,
    )
    return Scenario(grid, state, EulerSolver, config, name="acoustic")


def shock_tube_scenario(nx: int = 200, nr: int = 8, mu: float = 2e-3) -> Scenario:
    """Planar Sod-like shock tube run axially (radial direction trivial).

    The 2-4 MacCormack scheme is not shock-capturing by itself; a modest
    physical viscosity regularizes the discontinuities, which is enough to
    check wave speeds and the Rankine-Hugoniot plateau values.
    """
    grid = Grid(nx=nx, nr=nr, length_x=1.0, length_r=0.1)
    x = grid.xmesh()
    left = x < 0.5
    rho = np.where(left, 1.0, 0.125)
    p = np.where(left, 1.0, 0.1)
    state = partial(FlowState.from_primitive, grid, rho, 0.0, 0.0, p)
    config = SolverConfig(
        viscous=True,
        mu=mu,
        axisymmetric=False,
        periodic_x=False,
        periodic_r=True,
        boundary=None,
        cfl=0.3,
    )
    return Scenario(grid, state, NavierStokesSolver, config, name="sod")


def _jet_euler(**kw) -> Scenario:
    return jet_scenario(viscous=False, **kw)


#: Named constructors accepted by :func:`repro.api.run` (and the CLI).
SCENARIOS = {
    "jet": jet_scenario,
    "jet-ns": jet_scenario,
    "jet-euler": _jet_euler,
    "advection": periodic_advection_scenario,
    "acoustic": acoustic_pulse_scenario,
    "sod": shock_tube_scenario,
    "shock-tube": shock_tube_scenario,
}


def scenario_by_name(name: str, **kw) -> Scenario:
    """Build a registered scenario; ``kw`` goes to its constructor."""
    try:
        make = SCENARIOS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        ) from None
    return make(**kw)
