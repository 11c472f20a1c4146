"""Viscous stress tensor, heat fluxes, and halo-extended gradients."""

import numpy as np
import pytest

from repro import constants
from repro.grid import Grid
from repro.physics.viscous import (
    field_gradients,
    stress_tensor,
    viscous_fluxes,
)


@pytest.fixture
def grid():
    return Grid(nx=16, nr=12, length_x=2.0, length_r=1.0)


class TestStressTensor:
    def test_uniform_flow_has_no_stress(self, grid):
        shape = grid.shape
        u = np.full(shape, 1.5)
        v = np.zeros(shape)
        T = np.ones(shape)
        terms = stress_tensor(u, v, T, grid.r, grid.dx, grid.dr, mu=1e-3)
        for f in (terms.tau_xx, terms.tau_rr, terms.tau_xr,
                  terms.heat_x, terms.heat_r):
            assert np.allclose(f, 0.0, atol=1e-14)
        # tau_tt has a v/r term: zero here too.
        assert np.allclose(terms.tau_tt, 0.0, atol=1e-14)

    def test_pure_axial_shear(self, grid):
        """u = a*r gives tau_xr = mu*a and no normal stresses."""
        a, mu = 0.8, 2e-3
        u = a * grid.rmesh().copy()
        v = np.zeros(grid.shape)
        T = np.ones(grid.shape)
        terms = stress_tensor(u, v, T, grid.r, grid.dx, grid.dr, mu=mu)
        interior = (slice(2, -2), slice(2, -2))
        assert np.allclose(terms.tau_xr[interior], mu * a, rtol=1e-10)
        assert np.allclose(terms.tau_xx[interior], 0.0, atol=1e-12)

    def test_linear_expansion_normal_stresses(self, grid):
        """u = a*x: tau_xx = mu(2a - 2a/3), tau_rr = tau_tt = -2/3 mu a."""
        a, mu = 0.5, 1e-2
        u = a * grid.xmesh().copy()
        v = np.zeros(grid.shape)
        T = np.ones(grid.shape)
        terms = stress_tensor(u, v, T, grid.r, grid.dx, grid.dr, mu=mu)
        interior = (slice(2, -2), slice(2, -2))
        assert np.allclose(terms.tau_xx[interior], mu * a * 4 / 3, rtol=1e-9)
        assert np.allclose(terms.tau_rr[interior], -mu * a * 2 / 3, rtol=1e-9)
        assert np.allclose(terms.tau_tt[interior], -mu * a * 2 / 3, rtol=1e-9)

    def test_stokes_hypothesis_trace(self, grid, rng):
        """tau_xx + tau_rr + tau_tt = 2 mu (Theta) - 2 mu Theta = 0."""
        u = rng.random(grid.shape)
        v = rng.random(grid.shape) * grid.rmesh()  # keep v/r smooth
        T = 1.0 + 0.1 * rng.random(grid.shape)
        terms = stress_tensor(u, v, T, grid.r, grid.dx, grid.dr, mu=1e-3)
        trace = terms.tau_xx + terms.tau_rr + terms.tau_tt
        assert np.allclose(trace, 0.0, atol=1e-12)

    def test_heat_flux_down_gradient(self, grid):
        T = grid.xmesh().copy()  # dT/dx = 1
        u = v = np.zeros(grid.shape)
        terms = stress_tensor(u, v, T, grid.r, grid.dx, grid.dr, mu=1e-3)
        k = 1e-3 / ((constants.GAMMA - 1) * constants.PRANDTL)
        assert np.allclose(terms.heat_x, -k, rtol=1e-9)
        assert np.allclose(terms.heat_r, 0.0, atol=1e-14)


class TestHaloGradients:
    """Why one ghost line per viscous evaluation is enough (the ``g = 1``
    of ``parallel.halo.halo_depth``): gradients of a block that carries a
    neighbour's line *in the array*, trimmed back to the block, are the
    global gradients there — bit for bit."""

    @staticmethod
    def _check(grid, rng, present):
        u, v, T = (rng.random(grid.shape) for _ in range(3))
        full = field_gradients(u, v, T, grid.dx, grid.dr)
        xlo, xhi, rlo, rhi = (c == "1" for c in present)
        # A side without a ghost line is a physical boundary, so the block
        # reaches the domain edge there.
        i0, i1 = (5 if xlo else 0), (11 if xhi else grid.nx)
        j0, j1 = (3 if rlo else 0), (9 if rhi else grid.nr)
        ext = np.s_[i0 - xlo : i1 + xhi, j0 - rlo : j1 + rhi]
        own = np.s_[int(xlo) : int(xlo) + i1 - i0, int(rlo) : int(rlo) + j1 - j0]
        extended = field_gradients(u[ext], v[ext], T[ext], grid.dx, grid.dr)
        for g_full, g_ext in zip(full, extended):
            assert np.array_equal(g_full[i0:i1, j0:j1], g_ext[own])

    def test_halo_reproduces_interior_arithmetic(self, grid, rng):
        """A slab with a ghost column on both sides."""
        self._check(grid, rng, "1100")

    def test_one_sided_halo(self, grid, rng):
        """A slab at the domain edge extends only inward."""
        self._check(grid, rng, "0100")

    @pytest.mark.parametrize("present", [f"{n:04b}" for n in range(16)])
    def test_every_subset_of_the_four_lines(self, grid, rng, present):
        """Ghost lines on any subset of ``(xlo, xhi, rlo, rhi)``."""
        self._check(grid, rng, present)


class TestViscousFluxes:
    def test_structure(self, grid, rng):
        u = rng.random(grid.shape)
        v = rng.random(grid.shape)
        T = 1.0 + rng.random(grid.shape)
        terms = stress_tensor(u, v, T, grid.r, grid.dx, grid.dr, mu=1e-3)
        Fv, Gv = viscous_fluxes(u, v, terms)
        assert np.allclose(Fv[0], 0) and np.allclose(Gv[0], 0)
        assert np.array_equal(Fv[1], terms.tau_xx)
        assert np.array_equal(Fv[2], terms.tau_xr)
        assert np.array_equal(Gv[1], terms.tau_xr)
        assert np.array_equal(Gv[2], terms.tau_rr)
        # Energy flux: work of stresses minus conduction.
        assert np.allclose(
            Fv[3], u * terms.tau_xx + v * terms.tau_xr - terms.heat_x
        )
