"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import jet_scenario, periodic_advection_scenario
from repro.grid import Grid
from repro.physics.jet import JetProfile
from repro.physics.state import FlowState


def pytest_addoption(parser):
    parser.addoption(
        "--chaos-seed",
        default=None,
        help="seed for the fault-injection chaos suite: an int, or "
             "'random' to draw one (it is printed so any failure can be "
             "replayed with --chaos-seed=<printed value>)",
    )


@pytest.fixture(scope="session")
def chaos_seed(request) -> int:
    """The chaos suite's fault-plan seed — printed for reproducibility."""
    raw = request.config.getoption("--chaos-seed")
    if raw is None:
        seed = 11
    elif raw == "random":
        seed = random.SystemRandom().randrange(2**31)
    else:
        seed = int(raw)
    print(f"\n[chaos] fault-plan seed = {seed} "
          f"(replay with: pytest --chaos-seed={seed})")
    return seed


@pytest.fixture
def small_grid() -> Grid:
    return Grid(nx=24, nr=16)


@pytest.fixture
def unit_grid() -> Grid:
    return Grid(nx=16, nr=16, length_x=1.0, length_r=1.0)


@pytest.fixture
def profile() -> JetProfile:
    return JetProfile()


@pytest.fixture
def jet_state(small_grid, profile) -> FlowState:
    from repro.scenarios import jet_initial_state

    return jet_initial_state(small_grid, profile)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260706)


@pytest.fixture
def tiny_jet():
    """A small viscous jet scenario, fresh per test."""
    return jet_scenario(nx=40, nr=20, viscous=True)


@pytest.fixture
def advection():
    return periodic_advection_scenario(n=24)


def random_physical_state(grid: Grid, rng: np.random.Generator) -> FlowState:
    """A random but physically valid flow state on the grid."""
    shape = grid.shape
    rho = 0.5 + rng.random(shape)
    u = rng.uniform(-1.0, 1.0, shape)
    v = rng.uniform(-1.0, 1.0, shape)
    p = 0.3 + rng.random(shape)
    return FlowState.from_primitive(grid, rho, u, v, p)


def perturbed_jet(nx: int, nr: int, viscous: bool = True):
    """A jet scenario in which every interior interface carries signal.

    The plain jet's initial state is x-uniform and stays so for hundreds of
    steps away from the inflow, so a decomposition wall on it never
    exercises an axial interface.  Here all four conservative variables
    carry a +-2 % ``sin * cos`` ripple in x and r, and ``reynolds=200``
    lifts the viscous terms well above round-off.
    """
    sc = jet_scenario(nx=nx, nr=nr, viscous=viscous, reynolds=200.0)
    x = np.linspace(0.0, 2.0 * np.pi, nx)[:, None]
    r = np.linspace(0.0, 2.0 * np.pi, nr)[None, :]
    sc.state.q *= 1.0 + 0.02 * np.sin(3.0 * x) * np.cos(2.0 * r)
    return sc
