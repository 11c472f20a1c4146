"""The overlapped (Version 6) halo refresh: the bitwise wall + protocol units.

The invariant: a distributed ``version=6`` run is
**bitwise-identical** to the blocking refresh — across scenarios
(Euler / Navier-Stokes), decompositions (axial / radial / 2-D),
substrates (virtual / process) and kernel backends (fused / compiled) —
because it is the *same* refresh: the same messages with the same tags in
the same order, whose receive is posted before the rank-local ``dt``
estimate and finished after it.  The wall compares every overlapped run
against the serial reference *of the same backend*; ``test_lattice.py``
pins blocking == serial, so equality here pins overlap == blocking too.

The protocol units cover the post/finish-once rule of
:class:`~repro.parallel.halo.PendingHalo`, the reach of the one-sided
stencil it relies on, the :class:`~repro.msglib.api.MessageView` release
discipline, and the request surface (Version 6 is selected by
``version=6`` and nothing else; dropping the ``overlap`` field moved no
fingerprint).

The chaos half lives at the bottom: the self-healing transport and
checkpoint/restart must compose with in-flight posted receives.
"""

from __future__ import annotations

import dataclasses
import multiprocessing

import numpy as np
import pytest

from conftest import perturbed_jet
from repro.faults import FaultPlan, fault_plan_by_name
from repro.msglib import VirtualCluster
from repro.msglib.api import MessageView
from repro.numerics.stencils import (
    backward_difference,
    extend_axis,
    forward_difference,
)
from repro.obs import FlightRecorder, Tracer, use
from repro.parallel.halo import PendingHalo
from repro.parallel.runner import ParallelJetSolver, serial_reference
from repro.request import ExecutionConfig, RunRequest

STEPS = 6

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _case(viscous: bool, backend: str):
    sc = perturbed_jet(48, 16, viscous)
    config = dataclasses.replace(
        sc.solver.config, dt_recompute_every=1, backend=backend
    )
    ref = serial_reference(sc.state, config, steps=STEPS)
    return sc, config, ref


@pytest.fixture(scope="module")
def cases():
    """(viscous, backend) -> (scenario, config, serial reference)."""
    built = {}

    def get(viscous: bool, backend: str):
        key = (viscous, backend)
        if key not in built:
            built[key] = _case(viscous, backend)
        return built[key]

    return get


# -- the differential wall ----------------------------------------------------


def _halo_spans(tracer, rank=0):
    return [s for s in tracer.trace.spans if s.name == "halo.state" and s.rank == rank]


def _send_log(sc, config, **kw):
    flight = FlightRecorder(1 << 12)
    with use(flight=flight):
        ParallelJetSolver(sc.state, config, nranks=2, timeout=60, **kw).run(2)
    return [
        [(e["peer"], e["tag"], e["nbytes"]) for e in flight.events(r) if e["kind"] == "send"]
        for r in range(2)
    ]


class TestOverlapBitwiseWall:
    """overlap == blocking, everywhere the blocking refresh runs."""

    @pytest.mark.parametrize("backend", ["fused", "compiled"])
    @pytest.mark.parametrize(
        "substrate",
        [
            "virtual",
            pytest.param(
                "process",
                marks=pytest.mark.skipif(not HAS_FORK, reason="needs fork"),
            ),
        ],
    )
    @pytest.mark.parametrize(
        "decomp_kw",
        [
            dict(decomposition="axial"),
            dict(decomposition="radial"),
            dict(decomposition="2d", px=2, pr=1),
        ],
        ids=["axial", "radial", "2d"],
    )
    @pytest.mark.parametrize("viscous", [False, True], ids=["euler", "ns"])
    def test_overlap_matches_serial(
        self, cases, viscous, decomp_kw, substrate, backend
    ):
        sc, config, ref = cases(viscous, backend)
        res = ParallelJetSolver(
            sc.state, config, nranks=2, timeout=60, substrate=substrate,
            version=6, **decomp_kw,
        ).run(STEPS)
        assert np.array_equal(res.state.q, ref.q)

    def test_overlap_actually_engages(self, cases):
        """Guard against a silent degrade: per step the overlapped run
        observes the refresh twice — the post, then the finish inside the
        ``dt`` stage — where the blocking run observes it once."""
        sc, config, _ = cases(True, "fused")
        counts = {}
        for version in (5, 6):
            tracer = Tracer(name="overlap")
            ParallelJetSolver(
                sc.state, config, nranks=2, timeout=60, version=version
            ).run(2, tracer=tracer)
            counts[version] = len(_halo_spans(tracer))
        assert counts == {5: 2, 6: 4}
        # ... and only on a step that has a dt estimate to hide it behind.
        tracer = Tracer(name="every-third")
        ParallelJetSolver(
            sc.state, dataclasses.replace(config, dt_recompute_every=3),
            nranks=2, timeout=60, version=6,
        ).run(6, tracer=tracer)
        assert len(_halo_spans(tracer)) == 6 + 2

    def test_wire_identity(self, cases):
        """Posting is invisible on the wire: same peers, tags, bytes and
        order as the blocking refresh."""
        sc, config, _ = cases(True, "fused")
        assert _send_log(sc, config, version=6) == _send_log(sc, config, version=5)

    def test_version_6_overlaps_by_default(self, cases):
        """``version=6`` alone turns the posted refresh on: there is no
        other switch."""
        sc, config, ref = cases(True, "fused")
        tracer = Tracer(name="v6")
        res = ParallelJetSolver(
            sc.state, config, nranks=2, timeout=60, version=6
        ).run(STEPS, tracer=tracer)
        assert np.array_equal(res.state.q, ref.q)
        assert len(_halo_spans(tracer)) == 2 * STEPS

    def test_baseline_backend_overlaps_too(self, cases):
        """The posted refresh touches no kernel, so it needs no workspace:
        the allocating backend overlaps like the others."""
        sc, _, _ = cases(True, "fused")
        config = dataclasses.replace(
            sc.solver.config, dt_recompute_every=1, backend="baseline"
        )
        ref = serial_reference(sc.state, config, steps=STEPS)
        tracer = Tracer(name="baseline")
        res = ParallelJetSolver(
            sc.state, config, nranks=2, timeout=60, version=6
        ).run(STEPS, tracer=tracer)
        assert np.array_equal(res.state.q, ref.q)
        assert len(_halo_spans(tracer)) == 2 * STEPS

    def test_four_ranks_interior_and_edge(self, cases):
        """Interior ranks post on both sides per step; edge ranks on one."""
        sc, config, ref = cases(True, "fused")
        res = ParallelJetSolver(
            sc.state, config, nranks=4, timeout=60, version=6
        ).run(STEPS)
        assert np.array_equal(res.state.q, ref.q)


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


# -- split-phase protocol objects ---------------------------------------------


class TestPendingGhosts:
    def test_finish_twice_raises(self):
        pending = PendingHalo(None, "t", None, [], [])
        pending.finish()
        with pytest.raises(RuntimeError, match="called twice"):
            pending.finish()

    def test_a_step_finishes_what_it_posted(self, cases):
        """Post and finish pair up inside one step: nothing is pending
        between steps, on any rank."""
        sc, config, _ = cases(True, "fused")
        runner = ParallelJetSolver(sc.state, config, nranks=2, version=6)

        def program(comm):
            solver = runner._make_solver(comm, sc.state.q)
            seen = []
            for _ in range(3):
                solver.step()
                seen.append(solver._pending)
            return seen

        assert VirtualCluster(2, timeout=60).run(program) == [[None] * 3] * 2


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

#: One plan per fault mechanism (mirrors test_faults.FAULT_KINDS): each
#: recovery path must also hold while receives are posted early.
OVERLAP_FAULT_KINDS = {
    "drop": dict(drop=0.15, max_transmits=4),
    "duplicate": dict(duplicate=0.25),
    "reorder": dict(reorder=0.2),
    "mixed": dict(drop=0.08, duplicate=0.08, reorder=0.08, truncate=0.05,
                  delay=0.15, max_delay=0.001, max_transmits=4),
}


class TestOverlapChaos:
    @pytest.mark.parametrize("kind", sorted(OVERLAP_FAULT_KINDS))
    def test_healing_transport_composes(self, cases, chaos_seed, kind):
        sc, config, ref = cases(True, "fused")
        plan = FaultPlan(
            seed=chaos_seed, name=f"overlap-{kind}", recv_timeout=0.3,
            recv_retries=4, **OVERLAP_FAULT_KINDS[kind],
        )
        res = ParallelJetSolver(
            sc.state, config, nranks=2, timeout=30, faults=plan,
            version=6,
        ).run(STEPS)
        assert np.array_equal(res.state.q, ref.q)

    def test_crash_restart_composes(self, cases, chaos_seed):
        """An injected crash leaves posted receives in flight on the
        survivors; the restart must rebuild the exchange from the
        checkpoint, bitwise-exact."""
        sc, config, ref = cases(True, "fused")
        plan = FaultPlan(seed=chaos_seed, crashes=((1, 4),),
                         recv_timeout=0.2, recv_retries=2)
        res = ParallelJetSolver(
            sc.state, config, nranks=2, timeout=30, faults=plan,
            checkpoint_every=2, version=6,
        ).run(STEPS)
        assert res.restarts == 1
        assert np.array_equal(res.state.q, ref.q)

    def test_lossy_crash_preset_composes(self, cases, chaos_seed):
        sc, config, ref = cases(True, "fused")
        plan = fault_plan_by_name("lossy-crash", seed=chaos_seed)
        res = ParallelJetSolver(
            sc.state, config, nranks=2, timeout=30, faults=plan,
            checkpoint_every=2, max_restarts=3, version=6,
        ).run(STEPS)
        assert res.restarts >= 1
        assert np.array_equal(res.state.q, ref.q)
