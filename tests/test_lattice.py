"""The decomposition lattice on a state that makes the wall bite.

One sentence is under test: *serial == every ``px x pr`` == every backend
== Navier-Stokes and Euler == V5/V6/V7 == resumed after a crash, bit for
bit.*  The plain jet cannot test it — its initial state is x-uniform and
stays so for hundreds of steps, so an axial interface never sees a
gradient (the 250x100 harness run passes with a halo three lines too
shallow).  :func:`conftest.perturbed_jet` puts signal on every interface.

The guard-bites cases pin the derivation of the halo depth ``H``
(:func:`repro.parallel.halo.halo_depth`) from the other side: one line
fewer is *not* equal to serial, for both models, so ``H`` is neither too
shallow (the lattice) nor padded (these).
"""

from __future__ import annotations

import dataclasses
import multiprocessing

import numpy as np
import pytest

from conftest import perturbed_jet
from repro.faults import FaultPlan
from repro.parallel import runner as runner_mod
from repro.parallel import spmd as spmd_mod
from repro.parallel.halo import halo_depth
from repro.parallel.runner import ParallelJetSolver, serial_reference

STEPS = 4  # both MacCormack variants twice; dt recomputed on steps 0 and 2
NX, NR = 26, 24  # 3 x 1 is uneven (9, 9, 8); the thinnest block is H wide

GRIDS = [(2, 1), (3, 1), (1, 2), (1, 3), (2, 2), (3, 2)]
BACKENDS = ["baseline", "fused", "compiled"]
MODELS = [True, False]

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def cases():
    """``(viscous, backend) -> (scenario, config, serial reference q)``."""
    built = {}

    def get(viscous: bool, backend: str):
        key = (viscous, backend)
        if key not in built:
            sc = perturbed_jet(NX, NR, viscous)
            config = dataclasses.replace(
                sc.solver.config, backend=backend, dt_recompute_every=2
            )
            built[key] = sc, config, serial_reference(sc.state, config, STEPS).q
        return built[key]

    return get


def _run(sc, config, px, pr, **kw):
    return ParallelJetSolver(
        sc.state, config, nranks=px * pr, decomposition="2d", px=px, pr=pr,
        timeout=60, **kw,
    ).run(STEPS)


class TestLattice:
    @pytest.mark.parametrize("version", [5, 6, 7])
    @pytest.mark.parametrize("viscous", MODELS, ids=["ns", "euler"])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
    def test_virtual_equals_serial(self, cases, grid, backend, viscous, version):
        sc, config, ref = cases(viscous, backend)
        res = _run(sc, config, *grid, version=version)
        assert np.array_equal(res.state.q, ref)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork")
    @pytest.mark.parametrize(
        "grid,backend,viscous,version",
        [
            # Every grid, backend, model and version at least once, and
            # every (backend, version) and (model, version) pair.
            ((2, 1), "compiled", True, 5),
            ((3, 1), "fused", False, 6),
            ((1, 2), "baseline", True, 7),
            ((1, 3), "compiled", False, 7),
            ((2, 2), "fused", True, 5),
            ((3, 2), "baseline", False, 5),
            ((2, 1), "baseline", True, 6),
            ((1, 2), "compiled", True, 6),
            ((2, 2), "fused", False, 7),
        ],
        ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_process_equals_serial(self, cases, grid, backend, viscous, version):
        sc, config, ref = cases(viscous, backend)
        res = _run(sc, config, *grid, version=version, substrate="process")
        assert np.array_equal(res.state.q, ref)

    @pytest.mark.parametrize("version", [5, 6, 7])
    @pytest.mark.parametrize("grid", [(2, 1), (1, 2), (2, 2)], ids=lambda g: f"{g[0]}x{g[1]}")
    def test_crash_and_resume_equals_serial(self, cases, chaos_seed, grid, version):
        """A rank dies at step 3; the run restarts from the step-2 snapshot
        of the *owned* cells and rebuilds every ghost line from it."""
        sc, config, ref = cases(True, "fused")
        plan = FaultPlan(
            seed=chaos_seed, crashes=((1, 3),), recv_timeout=0.2, recv_retries=2
        )
        res = _run(
            sc, config, *grid, version=version, faults=plan, checkpoint_every=2
        )
        assert res.restarts == 1
        assert np.array_equal(res.state.q, ref)


class TestHaloDepthIsPinned:
    def test_depth_by_model(self, cases):
        _, ns, _ = cases(True, "fused")
        _, euler, _ = cases(False, "fused")
        assert (halo_depth(ns), halo_depth(euler)) == (8, 4)
        unfiltered = dataclasses.replace(ns, dissipation=0.0)
        assert halo_depth(unfiltered) == 6

    @pytest.mark.parametrize("grid", [(2, 1), (1, 2), (2, 2)], ids=lambda g: f"{g[0]}x{g[1]}")
    @pytest.mark.parametrize("viscous", MODELS, ids=["ns", "euler"])
    def test_guard_bites_one_line_short(self, cases, monkeypatch, viscous, grid):
        sc, config, ref = cases(viscous, "fused")
        assert np.array_equal(_run(sc, config, *grid).state.q, ref)
        for module in (spmd_mod, runner_mod):
            monkeypatch.setattr(
                module, "halo_depth", lambda cfg: halo_depth(cfg) - 1
            )
        assert not np.array_equal(_run(sc, config, *grid).state.q, ref)


class TestThinBlocksAreRefused:
    """A block thinner than the halo is deep would have to forward lines it
    does not own: a ``ValueError`` in the caller, before any rank starts."""

    @pytest.mark.parametrize(
        "kw,axis,width",
        [
            (dict(nranks=4, decomposition="axial"), "x", 6),
            (dict(nranks=4, decomposition="radial"), "r", 6),
            (dict(nranks=8, decomposition="2d", px=2, pr=4), "r", 6),
        ],
        ids=["axial", "radial", "2d"],
    )
    def test_navier_stokes_needs_eight(self, kw, axis, width):
        sc = perturbed_jet(NX, NR)
        with pytest.raises(ValueError) as exc:
            ParallelJetSolver(sc.state, sc.solver.config, **kw)
        text = str(exc.value)
        assert f"cannot split {axis} " in text
        assert f"thinnest block has {width} lines" in text
        assert "H = 8" in text
        assert "viscous stresses" in text and "2 for the filter" in text

    def test_euler_fits_where_navier_stokes_does_not(self):
        """Euler's H = 4 is below the partition's own ``MIN_BLOCK = 5``,
        which therefore stays the rule that speaks for it."""
        sc = perturbed_jet(NX, NR, viscous=False)
        ParallelJetSolver(sc.state, sc.solver.config, nranks=4)  # 6-line blocks
        ParallelJetSolver(sc.state, sc.solver.config, nranks=5)  # 5-line blocks
        with pytest.raises(ValueError, match="at least 5 points"):
            ParallelJetSolver(sc.state, sc.solver.config, nranks=6)

    def test_solver_refuses_too(self):
        """The per-rank constructor guards itself: built directly (the MPI
        runner does) it cannot run a halo shallower than its blocks."""
        from repro.msglib import VirtualCluster
        from repro.parallel.decomposition import CartesianDecomposition
        from repro.parallel.spmd import BlockDistributedSolver

        sc = perturbed_jet(NX, NR)
        comm = VirtualCluster(4, timeout=5).comms[0]
        with pytest.raises(ValueError, match="thinnest block has 6 lines"):
            BlockDistributedSolver(
                comm, sc.grid, sc.state.q, sc.solver.config,
                CartesianDecomposition(NX, NR, 4, 1),
            )
