"""The equivalence lattice: the correctness contract as one table.

One sentence is under test: *serial == every ``px x pr`` == every
substrate == every backend == Navier-Stokes, Euler and a power-law ``mu``
== V5/V6/V7 == resumed after a crash, bit for bit.*  Each clause is an
axis of :data:`AXES`; a row is one distributed run held to its oracle, the
serial ``baseline`` run of the same state and model — so every row also
pins its backend against the reference.

Both states carry signal across every interior interface.  The plain jet
cannot test the sentence: its initial state is x-uniform and stays so for
hundreds of steps, so an axial interface never sees a gradient (the
250x100 harness run passes with a halo three lines too shallow).  ``jet``
is :func:`conftest.perturbed_jet` at 48x24 — wide enough for five axial
blocks at ``H = 8`` — and ``planar`` is the advection state with both wraps
off (no axis to mirror across, cubic ghosts on all four sides),
:func:`conftest.ripple`-d the same way.

Tier-1 runs :data:`COVER`, a greedy all-pairs covering array of the
product under the constraints :func:`admissible` declares plus the
:data:`HEAD_TO_HEAD` rows, and the named rows: each equality test of
another file is one :func:`assert_row` (or, for the serial solver, one
:func:`assert_serial`) held to the same oracle by :func:`check`, so a row
runs once however many names hold it.  ``make lattice`` runs the whole
product (``-m slow``).  Fault rows keep the chaos
oracle — bit-equal, or a structured ``RankFailure``; never a hang, never a
wrong answer — and a crash must resume from its checkpoint.  Every fault
decision is a pure hash of the seed the ``chaos_seed`` fixture prints
(``pytest --chaos-seed=<n>`` replays it).  Fault-free process rows also
send, rank for rank, what their virtual row (held to the oracle too)
sends.

The guard-bites cases pin the derivation of the halo depth ``H``
(:func:`repro.parallel.halo.halo_depth`) from the other side: one line
fewer is *not* equal to serial, for both models, so ``H`` is neither too
shallow (the lattice) nor padded (these).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import multiprocessing
import random
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FAULT_KINDS, perturbed_jet, ripple, wire_plan
from repro.faults import FaultPlan, MessageTimeout, RankCrashed, fault_plan_by_name
from repro.msglib import DeadlockError, RankFailure
from repro.parallel import runner as runner_mod
from repro.parallel import spmd as spmd_mod
from repro.parallel.decomposition import MIN_BLOCK
from repro.parallel.halo import halo_depth
from repro.parallel.runner import ParallelJetSolver, serial_reference
from repro.scenarios import periodic_advection_scenario

STEPS = 4  # both MacCormack variants twice; dt recomputed on steps 0 and 2

AXES = {
    "state": ("jet", "planar"),
    "model": ("ns", "euler", "ns-mu"),
    "backend": ("baseline", "fused", "compiled"),
    "grid": ((1, 1), (2, 1), (3, 1), (4, 1), (5, 1),
             (1, 2), (1, 3), (1, 4), (2, 2), (3, 2), (2, 3)),
    "version": (5, 6, 7),
    "substrate": ("virtual", "process"),
    "faults": ("none", *FAULT_KINDS, "lossy-ethernet", "crash", "lossy-crash"),
}
Row = namedtuple("Row", AXES)

SHAPE = {"jet": (48, 24), "planar": (32, 32)}
#: ``halo_depth`` of each model (``TestHaloDepthIsPinned`` pins it).
DEPTH = {"ns": 8, "euler": 4, "ns-mu": 8}
HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
#: Faults that put more frames on the wire than messages: a duplicate, or
#: a truncated attempt followed by its retransmission.
EXTRA_FRAMES = {"duplicate", "truncate", "mixed", "lossy-ethernet", "lossy-crash"}
#: Faults that crash a rank: the run must resume from its checkpoint.
CRASHES = {"crash", "lossy-crash"}


def admissible(row: Row) -> bool:
    """The declared constraints: a fault needs a peer to fault, process
    ranks are forked, and no block is thinner than ``H`` (nor than the
    partition's ``MIN_BLOCK``)."""
    nx, nr = SHAPE[row.state]
    px, pr = row.grid
    return (
        (row.faults == "none" or px * pr > 1)
        and (row.substrate == "virtual" or HAS_FORK)
        and min(nx // px, nr // pr) >= max(DEPTH[row.model], MIN_BLOCK)
    )


def pairs(row: Row) -> set:
    """The value pairs a row covers, as ``(axis, value, axis, value)``."""
    return {
        (i, a, j, b)
        for (i, a), (j, b) in itertools.combinations(enumerate(row), 2)
    }


def covering_array(rows: list[Row]) -> list[Row]:
    """A greedy all-pairs cover of ``rows``: while a pair is uncovered,
    take the smallest one and add the row holding it that covers the most
    uncovered pairs — the first such row in the given order, so the array
    is deterministic."""
    covers = [pairs(row) for row in rows]
    todo = set().union(*covers)
    chosen = []
    while todo:
        need = min(todo)
        best = max(
            (k for k, cover in enumerate(covers) if need in cover),
            key=lambda k: len(covers[k] & todo),
        )
        chosen.append(rows[best])
        todo -= covers[best]
    return chosen


PRODUCT = [
    row for row in itertools.starmap(Row, itertools.product(*AXES.values()))
    if admissible(row)
]

#: Version 7 on processes under a fault that adds frames: each rank sends
#: its ``H`` lines, and an extra frame, before it receives — deeper than
#: the 8-slot ring, so both ranks finish only because a blocked sender
#: ingests its own inbox.  Two of these rows join the cover by name.
HEAD_TO_HEAD = [
    Row("jet", "ns", "compiled", (2, 1), 7, "process", faults)
    for faults in ("duplicate", "mixed")
]
_DRAWN = [
    row for row in PRODUCT
    if not (row.version == 7 and row.substrate == "process"
            and row.faults in EXTRA_FRAMES)
]
#: Drawn in a fixed shuffled order from the product less the head-to-head
#: rows — it holds every pair without them, and its rows (tier-1's test
#: ids) do not move when they are admitted — then the two named ones added.
#: The shuffle: once a row's pairs are chosen, its other values spread over
#: every axis instead of piling up on each axis's first value.
COVER = covering_array(random.Random(0).sample(_DRAWN, len(_DRAWN))) + HEAD_TO_HEAD


def row_id(row: Row) -> str:
    px, pr = row.grid
    return (
        f"{row.state}-{row.model}-{row.backend}-{px}x{pr}-v{row.version}-"
        f"{row.substrate}-{row.faults}"
    )


def build(state: str, model: str):
    """``(initial state, baseline config)`` of one state and model."""
    viscous = model != "euler"
    if state == "jet":
        sc = perturbed_jet(*SHAPE["jet"], viscous)
        config = sc.solver.config
    else:
        sc = periodic_advection_scenario(SHAPE["planar"][0])
        config = dataclasses.replace(
            sc.solver.config, periodic_x=False, periodic_r=False,
            viscous=viscous, mu=1e-3 if viscous else None,
        )
        ripple(sc.state.q)
    return sc.state, dataclasses.replace(
        config, dt_recompute_every=2, mu_exponent=0.7 if model == "ns-mu" else 0.0
    )


@functools.cache
def oracle(state: str, model: str):
    """``(initial state, baseline config, serial q)`` of one state and model."""
    initial, config = build(state, model)
    return initial, config, serial_reference(initial, config, STEPS).q


def fault_options(kind: str, seed: int) -> dict:
    """The runner options of one value of the ``faults`` axis: wire chaos
    gets no restart, a crash a checkpoint every ``dt`` recompute."""
    if kind == "none":
        return {}
    if kind == "crash":
        plan = FaultPlan(
            seed=seed, crashes=((1, 3),), recv_timeout=0.2, recv_retries=2
        )
    elif kind in FAULT_KINDS:
        plan = wire_plan(kind, seed)
    else:
        plan = fault_plan_by_name(kind, seed=seed)
    if kind in CRASHES:
        return dict(faults=plan, checkpoint_every=2, max_restarts=3)
    return dict(faults=plan, max_restarts=0)


def assert_bitwise(got: np.ndarray, want: np.ndarray, backend: str) -> None:
    """Exact equality, every backend: no row has a tolerance."""
    if np.array_equal(got, want):
        return
    # Map the sign-magnitude float ordering onto a monotonic integer line.
    gi, wi = (
        np.where(a < 0, np.int64(-(2**63) + 1) - a, a)
        for a in (got.view(np.int64), want.view(np.int64))
    )
    ulps = int(np.abs(gi - wi).max())
    raise AssertionError(f"{backend} differs from the serial baseline by up to {ulps} ulp")


def _run(initial, config, px, pr, **kw):
    return ParallelJetSolver(
        initial, config, nranks=px * pr, decomposition="2d", px=px, pr=pr,
        timeout=60, **kw,
    ).run(STEPS)


@functools.cache
def verdict(row: Row, seed: int) -> tuple | None:
    """Run one row and hold it to its oracle: the per-rank send counts of
    the run, or ``None`` when wire chaos the transport could not heal ended
    it in a structured ``RankFailure``.  Cached, so a row runs once per
    session."""
    initial, config, want = oracle(row.state, row.model)
    config = dataclasses.replace(config, backend=row.backend)
    try:
        res = _run(
            initial, config, *row.grid, version=row.version,
            substrate=row.substrate, **fault_options(row.faults, seed),
        )
    except RankFailure as failure:
        # Wire chaos the transport cannot heal ends the run (no restarts):
        # structured, naming its ranks, before any checkpoint.
        assert row.faults not in CRASHES, failure
        nranks = row.grid[0] * row.grid[1]
        assert failure.ranks and all(0 <= r < nranks for r in failure.ranks)
        assert failure.last_good_step == 0
        assert isinstance(
            failure.__cause__, (MessageTimeout, RankCrashed, RuntimeError)
        )
        # Never a send wedged on a full ring until the cluster timeout.
        assert not isinstance(failure.__cause__, DeadlockError), failure
        return None
    assert_bitwise(res.state.q, want, row.backend)
    assert res.nsteps == STEPS and res.t > 0
    assert (res.fault_stats is not None) == (row.faults != "none")
    if row.faults == "crash":
        assert res.restarts == 1
    elif row.faults == "lossy-crash":
        assert res.restarts >= 1
    sends = tuple(s.sends for s in res.per_rank_stats)
    if row.substrate == "process" and row.faults == "none":
        assert sends == verdict(row._replace(substrate="virtual"), seed)
    return sends


def check(row: Row, seed: int, heals: bool = False) -> None:
    """Hold one row to its oracle; with ``heals`` the transport must also
    have healed every wire fault the seed injected."""
    sends = verdict(row, seed if row.faults != "none" else 0)
    assert sends is not None or not heals, f"{row_id(row)}: RankFailure"


#: The row a named test starts from: it replaces the axes it is about.
DEFAULT = Row("jet", "ns", "baseline", (2, 1), 5, "virtual", "none")


def assert_row(seed: int = 0, heals: bool = False, **axes) -> None:
    """Hold :data:`DEFAULT` with ``axes`` replaced — a row of the product —
    to its oracle."""
    row = DEFAULT._replace(**axes)
    if row.substrate == "process" and not HAS_FORK:
        pytest.skip("needs fork")
    assert admissible(row), f"{row_id(row)} is not a row of the product"
    check(row, seed, heals)


def assert_serial(backend: str, model: str) -> None:
    """The serial solver on ``backend`` against the jet's oracle."""
    initial, config, want = oracle("jet", model)
    got = serial_reference(
        initial, dataclasses.replace(config, backend=backend), STEPS
    ).q
    assert_bitwise(got, want, backend)


def grid_id(grid) -> str:
    return f"{grid[0]}x{grid[1]}"


class TestLattice:
    @pytest.mark.parametrize("row", COVER, ids=row_id)
    def test_row(self, chaos_seed, row):
        check(row, chaos_seed)

    def test_cover_holds_every_admissible_pair(self):
        admissible_pairs = set().union(*map(pairs, PRODUCT))
        covered = set().union(*map(pairs, COVER))
        assert set(COVER) <= set(PRODUCT)
        assert covered == admissible_pairs
        print(
            f"\n[lattice] {len(COVER)} rows cover all {len(covered)} admissible "
            f"value pairs of the {len(PRODUCT)}-row product"
        )

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "state,model,backend",
        itertools.product(AXES["state"], AXES["model"], AXES["backend"]),
    )
    def test_product(self, chaos_seed, state, model, backend):
        """Every admissible row (``make lattice``), one item per oracle and
        backend; a failure lists every row that failed."""
        failed = []
        for row in PRODUCT:
            if row[:3] == (state, model, backend):
                try:
                    check(row, chaos_seed)
                except Exception as exc:  # noqa: BLE001 - reported below
                    failed.append(f"{row_id(row)}: {exc!r}")
        assert not failed, "\n".join(failed)

    # Named slices of the product.

    @pytest.mark.parametrize("version", [5, 6, 7])
    @pytest.mark.parametrize("model", ["ns", "euler"])
    @pytest.mark.parametrize("backend", AXES["backend"])
    @pytest.mark.parametrize(
        "grid", [(2, 1), (3, 1), (1, 2), (1, 3), (2, 2), (3, 2)], ids=grid_id
    )
    def test_virtual_equals_serial(self, grid, backend, model, version):
        assert_row(grid=grid, backend=backend, model=model, version=version)

    @pytest.mark.parametrize(
        "grid,backend,viscous,version",
        [
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
    def test_process_equals_serial(self, grid, backend, viscous, version):
        assert_row(
            grid=grid, backend=backend, model="ns" if viscous else "euler",
            version=version, substrate="process",
        )

    @pytest.mark.parametrize("version", [5, 6, 7])
    @pytest.mark.parametrize("grid", [(2, 1), (1, 2), (2, 2)], ids=grid_id)
    def test_crash_and_resume_equals_serial(self, chaos_seed, grid, version):
        """A rank dies at step 3; the run restarts from the step-2 snapshot
        of the *owned* cells and rebuilds every ghost line from it."""
        assert_row(
            chaos_seed, grid=grid, backend="fused", version=version, faults="crash"
        )


@st.composite
def drawn_grids(draw):
    """``(model, nx, nr, px, pr)``: each split axis ``p`` blocks of one line
    too thin, exactly the floor ``max(H, MIN_BLOCK)`` or wider, plus a
    remainder below ``p`` — ranks need not divide the grid."""
    model = draw(st.sampled_from(("ns", "euler")))
    px, pr = draw(st.sampled_from(AXES["grid"][1:]))
    floor = max(DEPTH[model], MIN_BLOCK)

    def extent(p):
        if p == 1:
            return draw(st.integers(12, 24))
        width = draw(st.sampled_from((floor - 1, floor, floor + 1, floor + 3)))
        return p * width + draw(st.integers(0, p - 1))

    return model, extent(px), extent(pr), px, pr


class TestDrawnGrids:
    @given(case=drawn_grids())
    @example(case=("ns", 50, 24, 3, 1))  # 17, 17, 16: 3 does not divide 50
    @example(case=("ns", 16, 24, 2, 1))  # blocks exactly H wide
    @example(case=("ns", 24, 17, 1, 2))  # 9 and 8 radial lines
    @example(case=("ns", 15, 24, 2, 1))  # 8 and 7: one line too thin
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_equal_to_serial_or_refused(self, case):
        model, nx, nr, px, pr = case
        sc = perturbed_jet(nx, nr, model == "ns")
        config = dataclasses.replace(sc.solver.config, dt_recompute_every=2)
        floor = max(DEPTH[model], MIN_BLOCK)
        if min(nx // px, nr // pr) < floor:
            why = f"H = {floor}" if DEPTH[model] >= MIN_BLOCK else f"at least {floor}"
            with pytest.raises(ValueError, match=why):
                _run(sc.state, config, px, pr)
            return
        res = _run(sc.state, config, px, pr)
        assert np.array_equal(res.state.q, serial_reference(sc.state, config, STEPS).q)


class TestHaloDepthIsPinned:
    def test_depth_by_model(self):
        assert {model: halo_depth(oracle("jet", model)[1]) for model in DEPTH} == DEPTH
        unfiltered = dataclasses.replace(oracle("jet", "ns")[1], dissipation=0.0)
        assert halo_depth(unfiltered) == 6

    @pytest.mark.parametrize("grid", [(2, 1), (1, 2), (2, 2)], ids=grid_id)
    @pytest.mark.parametrize("model", ["ns", "euler"])
    def test_guard_bites_one_line_short(self, monkeypatch, model, grid):
        initial, config, ref = oracle("jet", model)
        assert np.array_equal(_run(initial, config, *grid).state.q, ref)
        for module in (spmd_mod, runner_mod):
            monkeypatch.setattr(
                module, "halo_depth", lambda cfg: halo_depth(cfg) - 1
            )
        assert not np.array_equal(_run(initial, config, *grid).state.q, ref)


class TestThinBlocksAreRefused:
    """A block thinner than the halo is deep would have to forward lines it
    does not own: a ``ValueError`` in the caller, before any rank starts."""

    @pytest.mark.parametrize(
        "kw,axis,width",
        [
            (dict(nranks=7, decomposition="axial"), "x", 6),
            (dict(nranks=4, decomposition="radial"), "r", 6),
            (dict(nranks=8, decomposition="2d", px=2, pr=4), "r", 6),
        ],
        ids=["axial", "radial", "2d"],
    )
    def test_navier_stokes_needs_eight(self, kw, axis, width):
        sc = perturbed_jet(*SHAPE["jet"])
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
        sc = perturbed_jet(*SHAPE["jet"], viscous=False)
        ParallelJetSolver(sc.state, sc.solver.config, nranks=8)  # 6-line blocks
        ParallelJetSolver(sc.state, sc.solver.config, nranks=9)  # 5-line blocks
        with pytest.raises(ValueError, match="at least 5 points"):
            ParallelJetSolver(sc.state, sc.solver.config, nranks=10)

    def test_solver_refuses_too(self):
        """The per-rank constructor guards itself: built directly (the MPI
        runner does) it cannot run a halo shallower than its blocks."""
        from repro.msglib import VirtualCluster
        from repro.parallel.decomposition import CartesianDecomposition
        from repro.parallel.spmd import BlockDistributedSolver

        sc = perturbed_jet(*SHAPE["jet"])
        comm = VirtualCluster(7, timeout=5).comms[0]
        with pytest.raises(ValueError, match="thinnest block has 6 lines"):
            BlockDistributedSolver(
                comm, sc.grid, sc.state.q, sc.solver.config,
                CartesianDecomposition(*SHAPE["jet"], 7, 1),
            )
