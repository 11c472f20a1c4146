"""The kernel-backend registry, the in-place kernels and workspaces.

The fused backend re-runs the paper's single-processor optimisation ladder
(Versions 2-4) on the numpy hot path; like the paper's, it must change
performance only, never results.  Bitwise equality — not tolerance — is the
acceptance bar: here kernel by kernel, and run by run, serial and
distributed, as rows of ``test_lattice.py``.
"""

import dataclasses

import numpy as np
import pytest

from conftest import perturbed_jet
from repro import jet_scenario
from repro.api import run
from repro.numerics.kernels import (
    BaselineBackend,
    FusedBackend,
    StepWorkspace,
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.numerics.stencils import (
    backward_difference,
    extend_axis,
    forward_difference,
)
from repro.physics.viscous import gradient_axis
from test_compiled import _bits
from test_lattice import assert_row, assert_serial


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert "baseline" in available_backends()
        assert "fused" in available_backends()

    def test_get_backend(self):
        assert isinstance(get_backend("baseline"), BaselineBackend)
        assert isinstance(get_backend("fused"), FusedBackend)

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(ValueError, match="baseline"):
            get_backend("vectorized-fortran")

    def test_resolve_default_is_baseline(self):
        assert resolve_backend(None).name == "baseline"

    def test_explicit_name_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fused")
        assert resolve_backend("baseline").name == "baseline"

    def test_config_selects_backend(self):
        sc = jet_scenario(nx=16, nr=12)
        sc.solver.config.backend = "fused"
        solver = type(sc.solver)(sc.state, sc.solver.config)
        assert solver.backend.name == "fused"
        assert isinstance(solver._ws, StepWorkspace)

    def test_environment_cannot_select_backend(self, monkeypatch):
        """What ran is what the request's identity says: ``backend=None``
        fingerprints as the baseline family, so no environment variable may
        turn it into a compiled run behind the cache's back."""
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        assert resolve_backend(None).name == "baseline"
        res = run("sod", steps=3, metrics=True, ledger=False)
        assert res.perf.backend == "baseline"
        assert res.request.identity()["backend"] is None


class TestKernelPrimitives:
    """The in-place kernels must be bitwise equal to the allocating forms."""

    def test_gradient_axis_matches_numpy(self):
        rng = np.random.default_rng(7)
        f = rng.standard_normal((17, 11))
        for axis, h in ((0, 0.037), (1, 1.4)):
            ref = np.gradient(f, h, axis=axis, edge_order=2)
            out = np.empty_like(f)
            got = gradient_axis(f, h, axis, out=out)
            assert got is out
            assert np.array_equal(got, ref)

    def test_gradient_axis_matches_two_axis_call(self):
        """Per-axis gradients equal the corresponding outputs of the
        two-spacing call used by ``field_gradients``."""
        rng = np.random.default_rng(11)
        f = rng.standard_normal((9, 13))
        gx_ref, gr_ref = np.gradient(f, 0.25, 0.5, edge_order=2)
        assert np.array_equal(gradient_axis(f, 0.25, 0), gx_ref)
        assert np.array_equal(gradient_axis(f, 0.5, 1), gr_ref)

    def test_gradient_axis_needs_three_points(self):
        with pytest.raises(ValueError):
            gradient_axis(np.zeros((2, 4)), 1.0, 0, out=np.zeros((2, 4)))

    def test_one_sided_differences_out_matches_allocating(self):
        rng = np.random.default_rng(3)
        F = rng.standard_normal((4, 12, 8))
        for axis in (1, 2):
            ext = extend_axis(F, axis)
            out = np.empty_like(F)
            tmp = np.empty_like(F)
            for diff in (forward_difference, backward_difference):
                ref = diff(ext, axis, 0.1)
                got = diff(ext, axis, 0.1, out=out, tmp=tmp)
                assert got is out
                assert np.array_equal(got, ref)

    def test_extend_axis_out_matches_allocating(self):
        rng = np.random.default_rng(5)
        F = rng.standard_normal((4, 10, 6))
        ref = extend_axis(F, 1)
        out = np.empty((4, 14, 6))
        got = extend_axis(F, 1, out=out)
        assert got is out
        assert np.array_equal(got, ref)

    def test_extend_axis_out_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            extend_axis(np.zeros((4, 10, 6)), 1, out=np.zeros((4, 10, 6)))


@pytest.mark.parametrize("model", ["ns", "euler"], ids=["navier-stokes", "euler"])
class TestBitwiseEquivalence:
    """The tentpole contract: fused == baseline, bit for bit."""

    def test_serial(self, model):
        assert_serial("fused", model)

    def test_nprocs4(self, model):
        assert_row(model=model, backend="fused", grid=(4, 1))

    @pytest.mark.parametrize(
        "grid", [(2, 1), (1, 2), (2, 2)], ids=["axial", "radial", "2d"]
    )
    def test_every_decomposition(self, model, grid):
        """The unified exchange core gives every decomposition the fused
        workspace; each must match the allocating baseline bit for bit."""
        assert_row(model=model, backend="fused", grid=grid)


class TestWorkspaceMechanics:
    def test_state_ping_pong(self):
        """After the first step the state lives in a workspace buffer and
        alternates between the two — no per-step state allocation."""
        sc = jet_scenario(nx=32, nr=16, viscous=False)
        sc.solver.config.backend = "fused"
        solver = type(sc.solver)(sc.state, sc.solver.config)
        ws = solver._ws
        solver.step()
        # Steady state: sweeps land in state_b with state_a the
        # intermediate; the caller's initial array is never written.
        assert solver.state.q is ws.state_b
        for _ in range(3):
            solver.step()
            assert solver.state.q is ws.state_b

    def test_operators_constructed_once(self):
        sc = jet_scenario(nx=32, nr=16, viscous=False)
        solver = type(sc.solver)(sc.state, sc.solver.config)
        solver.run(4)
        l1 = solver._ops_cache[1]
        l2 = solver._ops_cache[2]
        solver.run(4)
        assert solver._ops_cache[1] is l1
        assert solver._ops_cache[2] is l2

    def test_filter_indices_cached(self):
        sc = jet_scenario(nx=32, nr=16, viscous=False)
        solver = type(sc.solver)(sc.state, sc.solver.config)
        solver.step()
        ix = {ax: solver._filter_ix[ax] for ax in (1, 2)}
        solver.step()
        assert solver._filter_ix[1] is ix[1]
        assert solver._filter_ix[2] is ix[2]

    def test_fused_workspace_on_every_decomposition(self):
        """Every decomposition gets a real fused workspace — no silent
        degradation to the allocating path (the pre-unification radial
        and 2-D solvers dropped ``_ws`` to ``None``)."""
        from repro.msglib.virtual import VirtualCluster
        from repro.parallel.decomposition import CartesianDecomposition
        from repro.parallel.spmd import BlockDistributedSolver

        sc = jet_scenario(nx=36, nr=24)
        config = sc.solver.config
        config.backend = "fused"
        grid, q = sc.state.grid, sc.state.q

        def has_workspace(decomp):
            cluster = VirtualCluster(decomp.nparts, timeout=60)
            return cluster.run(
                lambda comm: isinstance(
                    BlockDistributedSolver(comm, grid, q, config, decomp)._ws,
                    StepWorkspace,
                )
            )

        for px, pr in ((2, 1), (1, 2), (2, 2)):
            assert all(
                has_workspace(CartesianDecomposition(grid.nx, grid.nr, px, pr))
            )


class TestCompiledHaloEngagement:
    """A compiled run — serial or on any decomposition, the characteristic
    outflow window included — never leaves the C kernels: the ghost lines
    are in the rank's array, so there is no numpy edge path to fall back
    to.  ``field_gradients`` and ``np.gradient`` are made to raise.
    """

    @pytest.fixture
    def case(self, monkeypatch):
        """``(scenario, config, reference)`` with numpy gradients forbidden
        from here on (the reference is computed first, on ``baseline``)."""
        from repro.numerics.kernels import BackendUnavailable
        from repro.numerics.kernels.compiled import resolve_ops
        from repro.parallel.runner import serial_reference
        from repro.physics import viscous

        try:
            resolve_ops()
        except BackendUnavailable as exc:  # pragma: no cover - bare container
            pytest.skip(f"no compiled engine: {exc}")
        sc = perturbed_jet(36, 24)
        config = sc.solver.config
        assert config.boundary.characteristic_outflow
        ref = serial_reference(sc.state, config, steps=4)

        def numpy_gradients_forbidden(*args, **kwargs):
            raise AssertionError("numpy field_gradients reached")

        def numpy_gradient_forbidden(*args, **kwargs):
            raise AssertionError("np.gradient reached")

        monkeypatch.setattr(
            viscous, "field_gradients", numpy_gradients_forbidden
        )
        monkeypatch.setattr(np, "gradient", numpy_gradient_forbidden)
        return sc, config, ref

    def _run(self, case, backend, nranks, kw):
        from repro.parallel.runner import ParallelJetSolver

        sc, config, _ref = case
        config = dataclasses.replace(config, backend=backend)
        return ParallelJetSolver(
            sc.state, config, nranks=nranks, timeout=60, **kw
        ).run(4)

    @pytest.mark.parametrize(
        "nranks,kw",
        [
            (2, dict(decomposition="axial")),
            (2, dict(decomposition="radial")),
            (2, dict(decomposition="2d", px=1, pr=2)),
            (4, dict(decomposition="2d", px=2, pr=2)),
        ],
        ids=["axial", "radial", "2d-1x2", "2d-2x2"],
    )
    def test_compiled_never_reaches_numpy_gradients(self, case, nranks, kw):
        res = self._run(case, "compiled", nranks, kw)
        assert np.array_equal(res.state.q, case[2].q)

    def test_guard_bites_on_the_baseline_backend(self, case):
        from repro.msglib import RankFailure

        with pytest.raises(RankFailure, match="field_gradients reached"):
            self._run(case, "baseline", 2, dict(decomposition="axial"))

    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_outflow_window_never_reaches_numpy_gradients(
        self, case, nranks
    ):
        from repro.parallel.runner import serial_reference

        sc, config, ref = case
        if nranks == 1:
            compiled = dataclasses.replace(config, backend="compiled")
            q = serial_reference(sc.state, compiled, steps=4).q
        else:
            q = self._run(
                case, "compiled", nranks, dict(decomposition="axial")
            ).state.q
        assert np.array_equal(q, ref.q)

    def test_outflow_guard_bites_on_the_allocating_window(self, case):
        """What every step of the runs above hit before the window had a
        workspace — the allocating window the baseline backend keeps."""
        sc, config, _ref = case
        strip = sc.state.q[:, -5:, :].copy()

        def solver(backend):
            cfg = dataclasses.replace(config, backend=backend)
            return type(sc.solver)(sc.state.copy(), cfg)

        with pytest.raises(AssertionError, match="field_gradients reached"):
            solver("baseline")._outflow_rates(strip, 1)
        solver("compiled")._apply_boundaries(strip, 0.01, 1)  # stays in C


class TestOutflowWindowWorkspace:
    """The boundary update on the window workspace of the solver's backend
    — fused ``_outflow_rates``, compiled ``k_boundaries`` — is the
    allocating evaluation, bit for bit."""

    @staticmethod
    def _solver(physics, nx, backend, q=None):
        from repro.physics.state import FlowState

        viscous, mu_exponent = physics
        sc = jet_scenario(nx=nx, nr=20, viscous=viscous)
        config = dataclasses.replace(
            sc.solver.config, mu_exponent=mu_exponent, backend=backend
        )
        if q is None:
            # Every term of the window live: no symmetry left to hide in.
            rng = np.random.default_rng(nx)
            q = sc.state.q * (1.0 + 1e-2 * rng.standard_normal(sc.state.q.shape))
        state = FlowState(sc.grid, q.copy(), config.gamma)
        return type(sc.solver)(state, config)

    @pytest.mark.parametrize("nx", [5, 6, 250])
    @pytest.mark.parametrize("backend", ["fused", "compiled"])
    @pytest.mark.parametrize(
        "physics",
        [(False, 0.0), (True, 0.0), (True, 0.7)],
        ids=["euler", "ns-scalar-mu", "ns-field-mu"],
    )
    @pytest.mark.parametrize("variant", [1, 2])
    def test_workspace_window_equals_allocating_window(
        self, variant, physics, backend, nx
    ):
        if backend == "compiled" and not get_backend("compiled").available():
            pytest.skip("no compiled kernel engine on this host")
        reference = self._solver(physics, nx, None)
        solver = self._solver(physics, nx, backend, reference.state.q)
        assert reference._ws_window is None
        assert solver._ws_window.shape == (4, 5, 20)
        strip = solver.state.q[:, -5:, :].copy()
        if backend == "fused":
            expected = _bits(reference._outflow_rates(strip, variant))
            assert np.array_equal(_bits(solver._outflow_rates(strip, variant)), expected)
            assert ("ofw", variant) in solver._ops_cache
            # A second evaluation reuses every buffer and still agrees.
            assert np.array_equal(_bits(solver._outflow_rates(strip, variant)), expected)
        # Compiled has no rates outside k_boundaries: they reach q as
        # q_tail + dt*rates, and dt = 2**30 lifts their last bits above
        # q_tail's, so an ulp off in a rate is an ulp off in q.
        q0 = solver.state.q.copy()
        for dt in (1.0, 2.0**30, 2.0**30):  # a repeat reuses every buffer
            reference.state.q[:] = q0
            solver.state.q[:] = q0
            reference._apply_boundaries(strip, dt, variant)
            solver._apply_boundaries(strip, dt, variant)
            assert np.array_equal(_bits(solver.state.q), _bits(reference.state.q))

    @pytest.mark.parametrize("backend", ["fused", "compiled"])
    def test_strip_narrower_than_the_window_is_refused(self, backend):
        """The workspace is sized for five columns: a narrower strip is a
        ``ValueError``, never a read past a raw buffer."""
        if backend == "compiled" and not get_backend("compiled").available():
            pytest.skip("no compiled kernel engine on this host")
        solver = self._solver((True, 0.0), 12, backend)
        with pytest.raises(ValueError):
            solver._apply_boundaries(solver.state.q[:, -4:, :].copy(), 0.01, 1)
