"""Version 6 on real ranks: the bitwise wall + the halo contract.

The paper's Version 6 overlaps communication with computation; the
simulator models it (``repro.simulate.program``, Figures 7 and 8).  On
real ranks ``version=6`` refreshes the halo exactly as Version 5 does —
the posted-receive split phase it once ran never beat Version 5 in
alternating pairs (DESIGN.md §15) and is gone.  The ``v6`` rows of
``test_lattice.py`` hold it to serial across states, models,
decompositions, substrates, backends and faults, and the wall here names
some of them.  Here too: that a Version 6 step observes the one blocking
refresh of Version 5 and puts the same messages on the wire, that one
``ExchangePlan.refresh`` leaves every ghost line filled and nothing
pending, the reach of the one-sided stencil the halo depth relies on, the
:class:`~repro.msglib.api.MessageView` release discipline, and the request
surface (Version 6 is selected by ``version=6`` and nothing else; dropping
the ``overlap`` field moved no fingerprint).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import perturbed_jet
from repro.msglib import VirtualCluster
from repro.msglib.api import MessageView
from repro.numerics.stencils import (
    backward_difference,
    extend_axis,
    forward_difference,
)
from repro.obs import FlightRing, Tracer, use
from repro.parallel.halo import halo_depth
from repro.parallel.runner import ParallelJetSolver
from repro.request import ExecutionConfig, RunRequest
from test_lattice import assert_row


@pytest.fixture(scope="module")
def case():
    """The Navier-Stokes perturbed jet on the fused backend, ``dt`` every step."""
    sc = perturbed_jet(48, 16)
    return sc, dataclasses.replace(
        sc.solver.config, dt_recompute_every=1, backend="fused"
    )


# -- the bitwise wall and engagement --------------------------------------------


def _halo_spans(tracer, rank=0):
    return [s for s in tracer.trace.spans if s.name == "halo.state" and s.rank == rank]


def _send_log(sc, config, **kw):
    flight = FlightRing.create(nranks=2, capacity=1 << 12)
    with use(flight=flight):
        ParallelJetSolver(sc.state, config, nranks=2, timeout=60, **kw).run(2)
    log = [
        [(e["peer"], e["tag"], e["nbytes"]) for e in flight.read(r) if e["kind"] == "send"]
        for r in range(2)
    ]
    flight.close()
    return log


class TestOverlapBitwiseWall:
    """Version 6 == serial, through Version 5's refresh: the same spans and
    the same messages on the wire."""

    @pytest.mark.parametrize("backend", ["fused", "compiled"])
    @pytest.mark.parametrize("substrate", ["virtual", "process"])
    @pytest.mark.parametrize(
        "grid", [(2, 1), (1, 2), (2, 2)], ids=["axial", "radial", "2d"]
    )
    @pytest.mark.parametrize("model", ["euler", "ns"])
    def test_overlap_matches_serial(self, model, grid, substrate, backend):
        assert_row(
            model=model, grid=grid, substrate=substrate, backend=backend,
            version=6,
        )

    def test_overlap_actually_engages(self, case):
        """Version 6 runs Version 5's refresh: per step and rank it observes
        one ``halo.state`` exchange, as the blocking run does — no posted
        receive finished later in a second span."""
        sc, config = case
        counts = {}
        for version in (5, 6):
            tracer = Tracer(name="overlap")
            ParallelJetSolver(
                sc.state, config, nranks=2, timeout=60, version=version
            ).run(2, tracer=tracer)
            assert len(_halo_spans(tracer, rank=1)) == 2
            counts[version] = len(_halo_spans(tracer))
        assert counts == {5: 2, 6: 2}

    def test_wire_identity(self, case):
        """Version 6 puts Version 5's messages on the wire: same peers,
        tags, bytes and order."""
        sc, config = case
        assert _send_log(sc, config, version=6) == _send_log(sc, config, version=5)

    def test_baseline_backend_overlaps_too(self, case):
        """The refresh touches no kernel, so the allocating backend runs
        Version 6 as Version 5's refresh too, bitwise serial."""
        sc, config = case
        tracer = Tracer(name="baseline")
        ParallelJetSolver(
            sc.state, dataclasses.replace(config, backend="baseline"),
            nranks=2, timeout=60, version=6,
        ).run(2, tracer=tracer)
        assert len(_halo_spans(tracer)) == 2  # one refresh per step
        assert_row(backend="baseline", version=6)

    def test_version_6_overlaps_by_default(self, case):
        """``version=6`` alone selects Version 6 — there is no other
        switch — and it steps with Version 5's refresh, bitwise serial."""
        sc, config = case
        tracer = Tracer(name="v6")
        ParallelJetSolver(
            sc.state, config, nranks=2, timeout=60, version=6
        ).run(2, tracer=tracer)
        assert len(_halo_spans(tracer)) == 2
        assert_row(backend="fused", version=6)

    def test_four_ranks_interior_and_edge(self):
        """Interior ranks refresh both sides per step; edge ranks one."""
        assert_row(backend="fused", version=6, grid=(4, 1))


# -- the reach of the one-sided stencil -----------------------------------------


def _full_rate(flux, lo, hi, axis, h, forward, source, iw):
    """The reference rate: ghost planes through the fused ufunc chain."""
    ext = extend_axis(flux, axis, low=lo, high=hi)
    diff = forward_difference if forward else backward_difference
    d = diff(ext, axis, h)
    d = -d if source is None else source - d
    if not (isinstance(iw, float) and iw == 1.0):
        d = d * iw
    return d


class TestRateEdges:
    """The rate's edge columns see exactly two lines past the edge — the
    ``2`` per sweep in ``halo_depth``: with those two lines *in the array*
    the owned columns equal the rate taken with them as ghost planes, no
    matter how the array's own (fake) edge is closed."""

    @pytest.mark.parametrize("axis", [1, 2])
    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("with_source", [False, True])
    @pytest.mark.parametrize("with_iw", [False, True])
    def test_matches_full_ghost_rate(self, axis, forward, with_source, with_iw):
        rng = np.random.default_rng(42 + axis + 2 * forward)
        # The block with two ghost lines on the side the difference reaches
        # toward; its far (fake) edge is closed by cubic extrapolation.
        ext_shape = [4, 9, 7]
        ext_shape[axis] += 2
        flux = rng.random(ext_shape)
        source = rng.random(ext_shape) if with_source else None
        iw = 1.0 / np.linspace(1.0, 2.0, ext_shape[2]) if with_iw else 1.0
        h = 0.013
        own = slice(None, -2) if forward else slice(2, None)
        owned = tuple(own if ax == axis else slice(None) for ax in range(3))
        got = _full_rate(flux, None, None, axis, h, forward, source, iw)[owned]
        # The same two lines handed over as ghost planes (ordered outward,
        # nearest first) beside the owned block.
        lines = np.moveaxis(flux, axis, 0)
        lo, hi = (None, lines[-2:]) if forward else (lines[1::-1], None)
        want = _full_rate(
            flux[owned], lo, hi, axis, h, forward,
            source[owned] if with_source else None,
            iw[own] if with_iw and axis == 2 else iw,
        )
        assert np.array_equal(got, want)

    def test_only_two_edge_columns_touched(self):
        rng = np.random.default_rng(7)
        flux = rng.random((4, 9, 7))
        ghosts = rng.random((2, 4, 7))
        cubic = _full_rate(flux, None, None, 1, 0.1, True, None, 1.0)
        real = _full_rate(flux, None, ghosts, 1, 0.1, True, None, 1.0)
        # Forward differencing: only the two high-side columns differ.
        assert np.array_equal(real[:, :-2, :], cubic[:, :-2, :])
        assert not np.array_equal(real[:, -2:, :], cubic[:, -2:, :])


# -- the refresh completes in one call ----------------------------------------


class TestPendingGhosts:
    def test_finish_twice_raises(self, case):
        """One ``refresh`` fills every ghost line — corners of a 2 x 2 grid
        included — with the neighbour's owned lines: there is nothing
        left to finish."""
        sc, config = case
        runner = ParallelJetSolver(
            sc.state, config, nranks=4, px=2, pr=2, version=6
        )
        depth = halo_depth(config)

        def program(comm):
            solver = runner._make_solver(comm, sc.state.q)
            q = solver.state.q
            owned = q[solver.plan.owned].copy()
            q[...] = np.nan
            q[solver.plan.owned] = owned
            solver.plan.refresh(q, solver.nstep)
            xsl, rsl = runner.decomp.local_block(comm.rank, depth)
            return bool(np.array_equal(q, sc.state.q[:, xsl, rsl]))

        assert VirtualCluster(4, timeout=60).run(program) == [True] * 4

    def test_a_step_finishes_what_it_posted(self, case):
        """``refresh`` returns nothing, and no exchange is held between
        steps, on any rank."""
        sc, config = case
        runner = ParallelJetSolver(sc.state, config, nranks=2, version=6)

        def program(comm):
            solver = runner._make_solver(comm, sc.state.q)
            seen = []
            for _ in range(3):
                solver.step()
                seen.append(solver.plan.refresh(solver.state.q, solver.nstep))
                seen.append("_pending" in vars(solver))
            return seen

        assert VirtualCluster(2, timeout=60).run(program) == [
            [None, False] * 3
        ] * 2


class TestOwnedView:
    """``MessageView``: an owned payload behind the release discipline the
    harness probes rely on (the process substrate's side is
    ``test_process.py::TestRecvView``)."""

    def test_protocol(self):
        view = MessageView(np.arange(5.0))
        assert not view.array.flags.writeable
        assert np.array_equal(view.array, np.arange(5.0))
        view.release()
        assert view.released
        with pytest.raises(RuntimeError, match="after release"):
            view.array
        with pytest.raises(RuntimeError, match="called twice"):
            view.release()

    def test_context_manager(self):
        with MessageView(np.ones(3)) as view:
            assert view.array.sum() == 3.0
        assert view.released

    def test_virtual_comm_recv_view_default(self):
        """``recv_view`` is ``recv`` behind a view, on every transport."""

        def program(comm):
            if comm.rank == 0:
                comm.send(1, "v", np.arange(6.0))
                return True
            with comm.recv_view(0, "v", timeout=20) as view:
                return bool(np.array_equal(view.array, np.arange(6.0)))

        assert VirtualCluster(2, timeout=20).run(program)[1] is True

    def test_virtual_comm_irecv_view_default(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(1, "v", np.full(4, 2.0))
                return True
            req = comm.irecv_view(0, "v", timeout=20)
            with req.wait() as view:
                return bool(np.array_equal(view.array, np.full(4, 2.0)))

        assert VirtualCluster(2, timeout=20).run(program)[1] is True


# -- the request surface ------------------------------------------------------

_SMALL = dict(steps=6, nx=48, nr=24)

#: Fingerprints recorded at the parent of the PR that removed
#: ``ExecutionConfig.overlap`` (never part of the identity): the service
#: store's cached results stay valid only while these — and the simulated
#: one in ``test_run_request.py::TestPinnedBytes`` — do not move.
PINNED_FINGERPRINTS = [
    (dict(**_SMALL), "b8fbe1cd39b4"),
    (dict(nprocs=2, version=5, **_SMALL), "e2fbaf9cfe9c"),
    (dict(nprocs=2, version=6, **_SMALL), "3c87363f17f2"),
    (dict(nprocs=2, version=7, **_SMALL), "c2d69fee0f52"),
    (dict(nprocs=2, version=5, decomposition="radial", substrate="process",
          **_SMALL), "b107c392c38e"),
    (dict(nprocs=2, version=6, backend="compiled", faults="crash-rank1",
          checkpoint_every=2, **_SMALL), "fa7bd8e7284e"),
]


class TestOverlapIdentity:
    def test_overlap_does_not_change_fingerprint(self):
        """Removing the field moved no cache key."""
        got = [
            RunRequest.from_run_args("jet", **kw).fingerprint()
            for kw, _ in PINNED_FINGERPRINTS
        ]
        assert got == [fp for _, fp in PINNED_FINGERPRINTS]

    def test_overlap_round_trips_on_the_wire(self):
        """Version 6 is what crosses the wire."""
        req = RunRequest.from_run_args("jet", steps=6, nprocs=2, version=6)
        wire = req.to_dict()
        assert wire["execution"]["version"] == 6
        assert "overlap" not in wire["execution"]
        back = RunRequest.from_dict(wire)
        assert back.execution.version == 6
        assert back.fingerprint() == req.fingerprint()

    def test_old_wire_form_still_parses(self):
        """A wire dict from before the field existed parses; one that
        carries ``overlap`` is refused like any unknown field."""
        wire = RunRequest.from_run_args("jet", steps=6, nprocs=2).to_dict()
        assert RunRequest.from_dict(wire).execution.version == 7
        wire["execution"]["overlap"] = True
        with pytest.raises(ValueError, match="unknown execution field.*overlap"):
            RunRequest.from_dict(wire)
        assert "overlap" not in {f.name for f in dataclasses.fields(ExecutionConfig)}


# -- chaos over the overlapped path -------------------------------------------


class TestOverlapChaos:
    """The self-healing transport and checkpoint/restart compose with
    Version 6 runs."""

    @pytest.mark.parametrize("kind", ["drop", "duplicate", "mixed", "reorder"])
    def test_healing_transport_composes(self, chaos_seed, kind):
        assert_row(
            chaos_seed, heals=True, backend="fused", version=6, faults=kind
        )

    def test_crash_restart_composes(self, chaos_seed):
        """A crash leaves the survivors mid-exchange; the restart rebuilds
        the exchange from the checkpoint."""
        assert_row(chaos_seed, backend="fused", version=6, faults="crash")

    def test_lossy_crash_preset_composes(self, chaos_seed):
        assert_row(chaos_seed, backend="fused", version=6, faults="lossy-crash")
