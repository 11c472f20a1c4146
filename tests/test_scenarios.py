"""Scenario builders and the full paper-resolution smoke test."""

import numpy as np
import pytest

from repro import (
    acoustic_pulse_scenario,
    jet_scenario,
    periodic_advection_scenario,
    shock_tube_scenario,
)
from repro.numerics.boundary import Sponge
from repro.scenarios import jet_initial_state
from repro.grid import Grid
from repro.physics.jet import JetProfile


class TestJetScenario:
    def test_defaults(self):
        sc = jet_scenario()
        assert sc.grid.shape == (125, 50)
        assert sc.name == "jet-ns"
        assert sc.solver.config.viscous

    def test_euler_variant(self):
        sc = jet_scenario(viscous=False)
        assert sc.name == "jet-euler"
        assert sc.solver.fm.mu == 0.0

    def test_parameters_forwarded(self):
        sc = jet_scenario(nx=40, nr=20, mach=2.0, theta=0.2, epsilon=5e-3)
        assert sc.solver.config.mach == 2.0
        bc = sc.solver.config.boundary
        assert bc.inflow.epsilon == 5e-3
        assert bc.inflow.profile.theta == 0.2
        # Centerline momentum reflects the Mach number.
        assert sc.state.axial_momentum[0, 0] == pytest.approx(2.0, rel=0.01)

    def test_simulated_run_builds_no_state(self, monkeypatch):
        """The initial state is built on first access, and a simulated run
        never reads it."""
        import repro.scenarios
        from repro import run

        def refuse(*args):
            raise AssertionError("the initial state was built")

        monkeypatch.setattr(repro.scenarios, "jet_initial_state", refuse)
        res = run("jet", platform="IBM SP", nprocs=4, steps_window=2, ledger=False)
        assert res.sim.execution_time > 0
        with pytest.raises(AssertionError, match="initial state was built"):
            jet_scenario(nx=40, nr=20).state

    def test_custom_sponge(self):
        sc = jet_scenario(nx=40, nr=20, sponge=Sponge(width=2, strength=0.3))
        assert sc.solver.config.boundary.sponge.width == 2

    def test_stability_mode_excitation(self):
        sc = jet_scenario(nx=40, nr=20, use_stability_mode=True, theta=0.08)
        mode = sc.solver.config.boundary.inflow.mode
        assert mode is not None
        sc.solver.run(5)
        assert sc.state.is_physical()

    def test_initial_state_is_parallel_flow(self):
        g = Grid(nx=30, nr=20)
        st = jet_initial_state(g, JetProfile())
        assert np.all(st.v == 0.0)
        # Every axial station identical at t=0.
        assert np.array_equal(st.q[:, 0, :], st.q[:, 15, :])


class TestVerificationScenarios:
    def test_advection_wave_periodicity(self):
        sc = periodic_advection_scenario(n=16)
        lam = sc.grid.nx * sc.grid.dx
        rho = sc.state.rho[:, 0]
        # First point and the wrap-around ghost value agree.
        x = sc.grid.x
        wave = 1e-3 * np.sin(2 * np.pi * x / lam)
        assert np.allclose(rho, 1.0 + wave)

    def test_acoustic_pulse_centered(self):
        sc = acoustic_pulse_scenario(n=32)
        p = sc.state.p
        i, j = np.unravel_index(np.argmax(p), p.shape)
        assert abs(sc.grid.x[i] - 0.5) < 0.05
        assert abs(sc.grid.r[j] - 0.5) < 0.05

    def test_shock_tube_initial_jump(self):
        sc = shock_tube_scenario(nx=100, nr=8)
        rho = sc.state.rho[:, 0]
        assert rho[10] == 1.0 and rho[-10] == 0.125


class TestPaperResolution:
    def test_paper_grid_runs(self):
        """The full 250x100 configuration advances stably (short smoke)."""
        sc = jet_scenario(nx=250, nr=100, viscous=True)
        sc.solver.run(25)
        assert sc.state.is_physical()
        ms_per_step = 1e3 * sc.solver.wall_time / sc.solver.nstep
        # Sanity on the README claim that full runs take minutes: one step
        # should be well under a second.
        assert ms_per_step < 500
