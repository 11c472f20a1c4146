"""Hypothesis property tests: conservation, filter bounds, halo round-trips.

The property-based half of the ISSUE-3 harness (the chaos half lives in
``tests/test_faults.py`` and needs no hypothesis).  Three families:

* **mass conservation** on periodic interiors — the conservative-form
  solver and filter must preserve the discrete totals to rounding, under
  every kernel backend (baseline, fused, and the compiled "V6" rung —
  which, on hosts with no engine, falls back to fused and still must
  pass);
* **filter contraction** — one more pass of the fourth-difference filter
  never moves the state further than the last pass did
  (``||F(F(q)) - F(q)|| <= ||F(q) - q||``, valid on periodic interiors
  because every eigenvalue of ``I - eps D4`` lies in ``[1 - 16 eps, 1]``);
* **halo pack/unpack round-trips** — for any block widths at or above the
  stencil radius, the ghost lines a rank receives are bitwise the
  neighbour's true edge lines, through the plain wire and through the
  fault layer's sequence-numbered transport alike.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EulerSolver, SolverConfig
from repro.faults import FaultPlan, FaultyComm
from repro.grid import Grid
from repro.msglib.virtual import VirtualCluster
from repro.parallel.decomposition import CartesianDecomposition
from repro.parallel.halo import ExchangePlan
from repro.parallel.versions import version_by_number
from repro.physics.state import FlowState

from test_solver_properties import _planar_config, _smooth_periodic_state

#: The widest one-sided stencil the exchanges feed (two lines each way).
STENCIL_RADIUS = 2


def _compiled_bitwise() -> bool:
    """True when a compiled engine exists *and* promises bitwise equality
    (no engine means the backend falls back to fused — still correct, but
    there is nothing distinct to compare)."""
    from repro.numerics.kernels import get_backend

    be = get_backend("compiled")
    return be.available() and be.ops().bitwise

BACKENDS = ["baseline", "fused", "compiled"]


# ---------------------------------------------------------------------------
# mass conservation on periodic interiors, both backends
# ---------------------------------------------------------------------------
class TestConservation:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(seed=st.integers(0, 10_000), amplitude=st.floats(1e-5, 0.04))
    @settings(max_examples=15, deadline=None)
    def test_mass_conserved_periodic(self, backend, seed, amplitude):
        grid = Grid(nx=12, nr=10, length_x=1.0, length_r=1.0)
        state = _smooth_periodic_state(grid, seed, amplitude)
        solver = EulerSolver(state, _planar_config(backend=backend))
        t0 = state.conserved_totals(radial_weight=False)
        solver.run(6)
        t1 = state.conserved_totals(radial_weight=False)
        assert np.allclose(
            t1, t0, rtol=0, atol=1e-11 * max(np.abs(t0).max(), 1.0)
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_backends_bitwise_identical(self, seed):
        grid = Grid(nx=12, nr=10, length_x=1.0, length_r=1.0)
        state = _smooth_periodic_state(grid, seed, 0.02)

        def evolve(backend):
            s = FlowState(grid, state.q.copy())
            EulerSolver(s, _planar_config(backend=backend)).run(4)
            return s.q

        base = evolve("baseline")
        assert np.array_equal(base, evolve("fused"))
        if _compiled_bitwise():
            assert np.array_equal(base, evolve("compiled"))

    @given(seed=st.integers(0, 10_000), eps=st.floats(0.001, 0.1))
    @settings(max_examples=15, deadline=None)
    def test_filter_alone_conserves_mass(self, seed, eps):
        """The conservative-form filter must not create or destroy mass."""
        grid = Grid(nx=12, nr=10, length_x=1.0, length_r=1.0)
        state = _smooth_periodic_state(grid, seed, 0.05)
        solver = EulerSolver(state, _planar_config(dissipation=eps))
        filtered = solver.apply_filter(state.q.copy())
        assert np.allclose(
            filtered.sum(axis=(1, 2)),
            state.q.sum(axis=(1, 2)),
            rtol=0,
            atol=1e-12,
        )


# ---------------------------------------------------------------------------
# filter contraction
# ---------------------------------------------------------------------------
class TestFilterContraction:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(seed=st.integers(0, 10_000), eps=st.floats(0.001, 0.1))
    @settings(max_examples=20, deadline=None)
    def test_second_pass_moves_less(self, backend, seed, eps):
        grid = Grid(nx=14, nr=12, length_x=1.0, length_r=1.0)
        state = _smooth_periodic_state(grid, seed, 0.05)
        solver = EulerSolver(
            state, _planar_config(dissipation=eps, backend=backend)
        )
        q0 = state.q.copy()
        q1 = solver.apply_filter(q0.copy())
        q2 = solver.apply_filter(q1.copy())
        step1 = np.linalg.norm(q1 - q0)
        step2 = np.linalg.norm(q2 - q1)
        assert step2 <= step1 + 1e-14

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_filter_fixed_points_are_smooth(self, backend, seed):
        """Constant states are exact fixed points of the filter."""
        grid = Grid(nx=10, nr=10, length_x=1.0, length_r=1.0)
        rng = np.random.default_rng(seed)
        q = np.tile(
            rng.uniform(0.5, 2.0, size=4)[:, None, None], (1,) + grid.shape
        )
        state = FlowState(grid, q.copy())
        solver = EulerSolver(
            state, _planar_config(dissipation=0.05, backend=backend)
        )
        assert np.array_equal(solver.apply_filter(q.copy()), q)


# ---------------------------------------------------------------------------
# workspace-reuse safety: scratch buffers carry no state between runs
# ---------------------------------------------------------------------------
class TestWorkspaceReuse:
    @pytest.mark.parametrize("backend", ["fused", "compiled"])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_dirty_workspace_replays_bitwise(self, backend, seed):
        """Rewinding the state and re-running through an already-dirty
        workspace must replay the exact same trajectory — proof the
        persistent scratch arrays (and the compiled kernels writing into
        them) never leak one step's values into the next."""
        grid = Grid(nx=12, nr=10, length_x=1.0, length_r=1.0)
        state = _smooth_periodic_state(grid, seed, 0.03)
        q0 = state.q.copy()
        solver = EulerSolver(state, _planar_config(backend=backend))
        solver.run(4)
        first = solver.state.q.copy()
        solver.state.q[:] = q0
        solver.t = 0.0
        solver.nstep = 0
        solver._dt_cached = None
        solver.run(4)
        assert np.array_equal(solver.state.q, first)


# ---------------------------------------------------------------------------
# halo pack/unpack round-trips over a real 2-rank cluster
# ---------------------------------------------------------------------------
def _halo_roundtrip(widths, nr: int, depth: int, wrap_in_faults: bool):
    """Refresh a 2-rank halo ``depth`` deep over owned blocks of the given
    widths; returns each rank's extended array after the refresh."""
    rng = np.random.default_rng(hash(widths) % 2**31)
    owned = [rng.random((4, w, nr)) for w in widths]
    grouped = version_by_number(5)

    def program(comm):
        if wrap_in_faults:
            comm = FaultyComm(comm, FaultPlan(always_wrap=True))
        topo = CartesianDecomposition(5 * comm.size, 5, comm.size, 1).topology(
            comm.rank
        )
        ghosts = np.full((4, depth, nr), np.nan)
        parts = (owned[0], ghosts) if comm.rank == 0 else (ghosts, owned[1])
        q = np.concatenate(parts, axis=1)
        ExchangePlan(comm, topo, grouped, q.shape, depth).refresh(q, 0)
        return q

    return owned, VirtualCluster(2, timeout=30).run(program)


@st.composite
def block_widths(draw):
    """Two owned widths and a halo depth no deeper than the thinner one."""
    a = draw(st.integers(STENCIL_RADIUS, 9))
    b = draw(st.integers(STENCIL_RADIUS, 9))
    return (a, b), draw(st.integers(1, min(a, b)))


class TestHaloRoundTrip:
    @pytest.mark.parametrize("wrapped", [False, True],
                             ids=["plain", "fault-transport"])
    @given(case=block_widths(), nr=st.integers(3, 8))
    @settings(max_examples=12, deadline=None)
    def test_ghosts_are_neighbour_edges(self, wrapped, case, nr):
        widths, depth = case
        owned, (q0, q1) = _halo_roundtrip(widths, nr, depth, wrapped)
        # rank 0 is the low edge: its high ghosts are rank 1's first owned
        # lines, in order; its own lines are untouched.
        assert np.array_equal(q0[:, : widths[0]], owned[0])
        assert np.array_equal(q0[:, widths[0] :], owned[1][:, :depth])
        # rank 1 is the high edge: its low ghosts are rank 0's last lines.
        assert np.array_equal(q1[:, depth:], owned[1])
        assert np.array_equal(q1[:, :depth], owned[0][:, -depth:])

    @given(case=block_widths(), nr=st.integers(3, 8))
    @settings(max_examples=8, deadline=None)
    def test_fault_transport_is_bitwise_transparent(self, case, nr):
        """Framing + sequence numbering changes no ghost bit."""
        widths, depth = case
        _, plain = _halo_roundtrip(widths, nr, depth, wrap_in_faults=False)
        _, framed = _halo_roundtrip(widths, nr, depth, wrap_in_faults=True)
        for a, b in zip(plain, framed):
            assert np.array_equal(a, b)
