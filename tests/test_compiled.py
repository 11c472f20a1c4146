"""The compiled ("V6") kernel backend: selection, entry points, build.

The compiled backend replays the paper's Version 5-6 compiler rung — the
same physics, rebuilt as native loops in one cached C shared object.
Like the fused backend, it must change performance only, never results:

* each fused C kernel equals the numpy chains it transcribes, bit for
  bit — the rate and stress kernels called through the C ABI, the flux
  read back from a sweep plan's buffers; the plan entry points
  (``k_sweep``, ``k_filter_step``) equal the fused operators they replace
  under every ghost rule and refuse operands they would read past or
  write over, and a step makes at most four foreign calls; whole runs —
  serial, every decomposition and substrate — are the ``compiled`` rows of
  ``test_lattice.py``, held to exact equality;
* the library built for the host's own vector unit steps every physics
  and a rank block exactly like one built with the generic flags, a
  shared cache keeps one library per instruction set, and a compiler
  that refuses the host flags still yields the ``cc`` engine;
* selection mirrors the other backends: ``SolverConfig.backend`` (or
  ``run(..., backend=)``), and a clean ``BackendUnavailable`` fallback to
  the fused workspace (with a ``RuntimeWarning``, never a crash).
"""

import copy
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import types
import warnings
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perturbed_jet
from repro import constants, jet_scenario, periodic_advection_scenario, run
from repro.grid import Grid
from repro.msglib import VirtualCluster
from repro.numerics.kernels import (
    BackendUnavailable,
    CompiledBackend,
    CompiledWorkspace,
    StepWorkspace,
    available_backends,
    get_backend,
)
from repro.numerics.kernels import _cc, compiled
from repro.numerics.kernels.compiled import resolve_ops
from repro.numerics.kernels.fused import (
    _subtract_viscous,
    fused_axial_flux,
    fused_radial_flux,
)
from repro.numerics.solver import CompressibleSolver, SolverConfig
from repro.numerics.stencils import (
    backward_difference,
    extend_axis,
    forward_difference,
)
from repro.parallel.decomposition import CartesianDecomposition
from repro.parallel.spmd import BlockDistributedSolver
from repro.physics import eos
from repro.physics.state import FlowState
from repro.physics.viscous import stress_tensor
from test_lattice import assert_row, assert_serial


def _evolve(backend, steps=5, nx=36, nr=18, viscous=True, mu_exp=0.0):
    sc = jet_scenario(nx=nx, nr=nr, viscous=viscous)
    cfg = copy.deepcopy(sc.solver.config)
    cfg.backend = backend
    cfg.mu_exponent = mu_exp
    solver = CompressibleSolver(copy.deepcopy(sc.state), cfg)
    for _ in range(steps):
        solver.step()
    return solver.state.q


@pytest.fixture
def no_toolchain(monkeypatch):
    """A host whose C compiler is missing and whose ops are not yet warm."""
    monkeypatch.setenv("REPRO_CC", "no-such-compiler")
    monkeypatch.setattr(compiled, "_OPS", None)


@pytest.fixture(scope="module")
def ops():
    """The resolved compiled ops, or skip when no engine exists."""
    try:
        return resolve_ops()
    except BackendUnavailable as exc:  # pragma: no cover - bare container
        pytest.skip(f"no compiled engine: {exc}")


class TestSelection:
    def test_registered(self):
        assert "compiled" in available_backends()
        assert isinstance(get_backend("compiled"), CompiledBackend)

    def test_config_selects_compiled_workspace(self, ops):
        sc = jet_scenario(nx=16, nr=12)
        cfg = copy.deepcopy(sc.solver.config)
        cfg.backend = "compiled"
        solver = CompressibleSolver(copy.deepcopy(sc.state), cfg)
        assert isinstance(solver._ws, CompiledWorkspace)
        assert solver._ws.ops is not None

    def test_unavailable_falls_back_to_fused(self, no_toolchain):
        sc = jet_scenario(nx=16, nr=12)
        with pytest.warns(RuntimeWarning, match="falling back"):
            ws = get_backend("compiled").step_workspace(sc.solver)
        assert type(ws) is StepWorkspace  # the fused workspace, not compiled

    def test_fallback_run_is_bitwise_fused(self, no_toolchain):
        """A fallback run produces the fused numbers, not an error."""
        with pytest.warns(RuntimeWarning, match="falling back"):
            got = _evolve("compiled", steps=3, nx=24, nr=12)
        want = _evolve("fused", steps=3, nx=24, nr=12)
        assert np.array_equal(got, want)

    def test_missing_compiler_names_the_override(self, no_toolchain):
        """The error names the $REPRO_CC value that is not on PATH instead
        of claiming the host has no compiler at all."""
        with pytest.raises(BackendUnavailable, match="REPRO_CC='no-such-compiler'"):
            resolve_ops()

    def test_available_reports_without_raising(self, request):
        assert get_backend("compiled").available() in (True, False)
        request.getfixturevalue("no_toolchain")
        assert get_backend("compiled").available() is False


class TestDifferentialSerial:
    """compiled == the serial baseline (== fused), exactly."""

    @pytest.mark.parametrize("model", ["ns", "euler"], ids=["navier-stokes", "euler"])
    def test_matches_fused(self, ops, model):
        assert_serial("compiled", model)

    def test_matches_fused_mu_field(self, ops):
        """Sutherland-style variable viscosity hits the mu-array kernels."""
        assert_serial("compiled", "ns-mu")


class TestDifferentialDistributed:
    """compiled == serial across every decomposition and substrate."""

    @pytest.mark.parametrize("model", ["ns", "euler"], ids=["jet", "jet-euler"])
    @pytest.mark.parametrize(
        "grid", [(4, 1), (1, 2), (2, 2)], ids=["axial-p4", "radial-p2", "2d-2x2"]
    )
    @pytest.mark.parametrize("substrate", ["virtual", "process"])
    def test_matches_serial_fused(self, ops, model, grid, substrate):
        assert_row(model=model, backend="compiled", grid=grid, substrate=substrate)


class TestWorkspaceReuse:
    """Scratch buffers carry no state across steps or resets."""

    def test_reset_and_rerun_is_bitwise_stable(self, ops):
        sc = jet_scenario(nx=24, nr=12)
        cfg = copy.deepcopy(sc.solver.config)
        cfg.backend = "compiled"
        q0 = sc.state.q.copy()
        solver = CompressibleSolver(copy.deepcopy(sc.state), cfg)
        for _ in range(3):
            solver.step()
        first = solver.state.q.copy()
        # Rewind the state but keep the (now dirty) workspace.
        solver.state.q[:] = q0
        solver.t = 0.0
        solver.nstep = 0
        solver._dt_cached = None
        for _ in range(3):
            solver.step()
        assert np.array_equal(solver.state.q, first)


#: Which block edges carry a neighbour's ghost lines (every other side is a
#: physical boundary) — the sets the ``px x pr`` block grids make.
GHOST_SETS = {
    "x-lo": {"xlo"},
    "x-hi": {"xhi"},
    "x-both": {"xlo", "xhi"},
    "r-lo": {"rlo"},
    "r-hi": {"rhi"},
    "r-both": {"rlo", "rhi"},
    "2d-all": {"xlo", "xhi", "rlo", "rhi"},
    "2d-none-side": {"xhi", "rlo"},
}


def _visc_case(nx, nr, mu_field, ghosts, depth, seed=0):
    """An ``nx x nr`` owned block cut from one random field together with
    ``depth`` ghost lines on the sides in ``ghosts``: a workspace holding
    its primitives, a flux to subtract from, the viscosity (scalar or
    field), the flux model and the index of the owned cells."""
    rng = np.random.default_rng(seed)
    full = (nx + 4, nr + 4)  # room for two ghost lines on every side
    u, v = rng.standard_normal(full), rng.standard_normal(full)
    T = 1.0 + rng.random(full)
    flux = rng.standard_normal((4,) + full)
    pad = {side: depth if side in ghosts else 0 for side in GHOST_SETS["2d-all"]}
    xs = slice(2 - pad["xlo"], 2 + nx + pad["xhi"])
    rs = slice(2 - pad["rlo"], 2 + nr + pad["rhi"])
    owned = (
        slice(None), slice(pad["xlo"], pad["xlo"] + nx), slice(pad["rlo"], pad["rlo"] + nr)
    )
    ws = StepWorkspace((4,) + u[xs, rs].shape, viscous=True, mu_field=True)
    ws.u[:], ws.v[:], ws.T[:] = u[xs, rs], v[xs, rs], T[xs, rs]
    mu = 0.01
    if mu_field:
        np.multiply(ws.T**0.7, 0.01, out=ws.mu)
        mu = ws.mu
    fm = types.SimpleNamespace(
        r=np.ascontiguousarray(np.linspace(0.5, 2.0, nr + 4)[rs]),
        dx=0.1, dr=0.07, gamma=1.4,
    )
    return ws, fm, mu, np.ascontiguousarray(flux[:, xs, rs]), owned


def _reference_visc(fm, ws, mu, flux, radial):
    """The numpy oracle: flux rows and tau_tt."""
    terms = stress_tensor(ws.u, ws.v, ws.T, fm.r, fm.dx, fm.dr, mu, fm.gamma)
    out = flux.copy()
    if radial:
        _subtract_viscous(
            out, terms.tau_rr, terms.tau_xr, terms.heat_r, ws.u, ws.v, 2, 1, ws
        )
    else:
        _subtract_viscous(
            out, terms.tau_xx, terms.tau_xr, terms.heat_x, ws.u, ws.v, 1, 2, ws
        )
    return out, terms.tau_tt


def _call(ops, kernel, *args):
    """The library's ``kernel`` on raw operands: an array goes as its
    address (``CcOps._p``), ``None`` as NULL, a number as itself."""
    getattr(ops._lib, kernel)(
        *(ops._p(a) if isinstance(a, np.ndarray) else a for a in args)
    )


def _compiled_visc(ops, fm, ws, mu, flux, radial):
    """``k_visc`` on a copy of ``flux``; a scalar viscosity and its
    conductivity ride as constant rows (stride 0)."""
    out, (nx, nr) = flux.copy(), ws.u.shape
    k = eos.conductivity(mu, fm.gamma, constants.PRANDTL)
    stride = nr if isinstance(mu, np.ndarray) else 0
    mu, k = (mu, k) if stride else (np.full(nr, mu), np.full(nr, k))
    _call(
        ops, "k_visc", out, ws.tau_tt if radial else None, None, ws.u, ws.v,
        ws.T, ws.p, fm.r, None, mu, stride, k, stride, nx, nr, fm.dx, fm.dr,
        int(radial),
    )
    return out


class TestGhostAwareViscousKernel:
    """The halo path of the viscous kernel: a block carrying its
    neighbours' ghost lines *in the array*.  ``k_visc`` on it equals the
    numpy path bit for bit — every flux row and ``tau_tt`` — and one ghost
    line is all the owned cells see: a second line changes none of them
    (the ``g = 1`` of ``halo_depth``), for every ghost set the
    decompositions make."""

    @pytest.mark.parametrize("shape", [(7, 5), (125, 100)], ids=["7x5", "125x100"])
    @pytest.mark.parametrize("ghosts", list(GHOST_SETS))
    @pytest.mark.parametrize("mu_field", [False, True], ids=["mu-scalar", "mu-field"])
    @pytest.mark.parametrize("radial", [False, True], ids=["axial", "radial"])
    def test_matches_numpy_halo_path(self, ops, shape, ghosts, mu_field, radial):
        sides = GHOST_SETS[ghosts]
        ws, fm, mu, flux, owned = _visc_case(*shape, mu_field, sides, depth=1)
        want, want_tt = _reference_visc(fm, ws, mu, flux, radial)
        got = _compiled_visc(ops, fm, ws, mu, flux, radial)
        assert np.array_equal(got, want)
        if radial:
            assert np.array_equal(ws.tau_tt, want_tt)
        ws2, fm2, mu2, flux2, owned2 = _visc_case(*shape, mu_field, sides, depth=2)
        deeper, _ = _reference_visc(fm2, ws2, mu2, flux2, radial)
        assert np.array_equal(got[owned], deeper[owned2])


def _bits(a: np.ndarray) -> np.ndarray:
    """The array's bit patterns: ``array_equal`` on these also tells
    ``-0.0`` from ``0.0``, which ``-d`` versus ``0.0 - d`` differ by."""
    return np.ascontiguousarray(a).view(np.int64)


def _rate_case(nx, nr, axis, seed=0):
    """A flux with an exactly constant patch (so some differences are
    exactly zero), the operands of both combines, ghost planes, a source
    whose rows 0, 1, 3 are zero like the solver's, and ``1/r``."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((4, nx, nr))
    f[:, : nx // 2 + 1, : nr // 2 + 1] = 0.25
    q, qs = rng.standard_normal((2, 4, nx, nr))
    gh = rng.standard_normal((2, 4, nr if axis == 1 else nx))
    source = np.zeros((4, nx, nr))
    source[2] = rng.standard_normal((nx, nr))
    iw = 1.0 / np.linspace(0.5, 2.0, nr)[None, None, :]
    return f, q, qs, gh, source, iw


def _reference_rate(f, gh, axis, h, forward, source, iw, mode, q, qs, dt):
    """The ufunc chains of ``stencils.py`` / ``SplitOperator`` the kernel
    transcribes, in their in-place order."""
    lo, hi = (None, gh) if forward else (gh, None)
    ext = extend_axis(f, axis, low=lo, high=hi)
    d, tmp = np.empty_like(f), np.empty_like(f)
    diff = forward_difference if forward else backward_difference
    diff(ext, axis, h, out=d, tmp=tmp)
    if source is None:
        np.negative(d, out=d)
    else:
        np.subtract(source, d, out=d)
    if not isinstance(iw, float):
        np.multiply(d, iw, out=d)
    if mode == 0:
        return d
    np.multiply(d, dt, out=d)
    if mode == 1:
        return np.add(q, d)
    out = np.add(q, qs)
    np.add(out, d, out=out)
    return np.multiply(out, 0.5, out=out)


def _check_rate(ops, shape, mode, axis, forward, ghosts, sourced, weighted):
    f, q, qs, gh, source, iw = _rate_case(*shape, axis)
    gh = gh if ghosts else None
    source = source if sourced else None
    iw = iw if weighted else 1.0
    want = _reference_rate(f, gh, axis, 0.07, forward, source, iw, mode, q, qs, 0.013)
    got, row = np.empty_like(f), iw[0, 0] if weighted else np.ones(shape[1])
    _call(
        ops, "k_rate", f, gh, source, row, got, *shape, axis, 0.07,
        int(forward), mode, q, qs, 0.013,
    )
    assert np.array_equal(_bits(got), _bits(want))


#: One configuration per ghost rule the plans carry: the jet's axis mirror
#: (cubic elsewhere), a planar box (cubic everywhere), a periodic wrap.
RULES = {
    "axis-mirror": dict(axisymmetric=True),
    "cubic": dict(axisymmetric=False),
    "periodic-x": dict(axisymmetric=False, periodic_x=True),
    "periodic-r": dict(axisymmetric=False, periodic_r=True),
}


def _fused_and_compiled(rules, viscous, mu_exp, shape, seed=0):
    """A fused and a compiled solver over one random physical state."""
    rng = np.random.default_rng(seed)
    grid = Grid(nx=shape[0], nr=shape[1], length_x=1.0, length_r=1.0)
    rho, p = 1.0 + 0.2 * rng.random((2,) + shape)
    u, v = 0.3 * rng.standard_normal((2,) + shape)
    q = FlowState.from_primitive(grid, rho, u, v, p).q
    pair = []
    for backend in ("fused", "compiled"):
        cfg = SolverConfig(
            viscous=viscous, mu=0.01, mu_exponent=mu_exp, boundary=None,
            backend=backend, **RULES[rules],
        )
        pair.append(CompressibleSolver(FlowState(grid, q.copy()), cfg))
    return pair, q


def _check_flux(ops, shape, viscous, radial, axisymmetric, mu_exp=0.0):
    """One sweep plan per variant: the flux it evaluated last — of its
    ``q_star`` — read back from its buffers against the fused kernel on
    that ``q_star``, with the primitives the stresses read."""
    rules = "axis-mirror" if axisymmetric else "cubic"
    (fused, comp), q = _fused_and_compiled(rules, viscous, mu_exp, shape)
    flux, ref = (fused_radial_flux if radial else fused_axial_flux), fused._ws
    for variant in (1, 2):
        sweep = comp._cached_operators(variant)[radial]
        sweep.apply(q, 0.003, out=np.empty_like(q))
        plan = sweep._plan.keep  # an Euler flux stores no u, v, T
        flux(fused.fm, plan["q_star"], ref)
        for name in ("F", "p", "u", "v", "T")[: 5 if viscous else 2]:
            assert np.array_equal(_bits(plan[name]), _bits(getattr(ref, name))), name
        assert np.array_equal(_bits(comp._ws.S), _bits(ref.S))


#: Shapes that reach the edge code: the smallest a cubic extrapolation and
#: a viscous gradient take, and the outflow helper's 5-column window; a
#: plan's grid takes no fewer than 5 points per axis.
RATE_SHAPES = [(4, 4), (5, 4), (5, 9)]
FLUX_SHAPES = [(5, 5), (5, 9), (9, 5), (6, 7), (13, 11)]


class TestFusedEntryPoints:
    """The kernels that fuse several numpy chains into one pass against
    those chains, bit for bit (signed zeros included): the rate with its
    combine through the C ABI, primitives, inviscid flux and stresses as a
    sweep plan composes them."""

    @pytest.mark.parametrize("weighted", [True, False], ids=["1/r", "identity"])
    @pytest.mark.parametrize("sourced", [True, False], ids=["source", "no-source"])
    @pytest.mark.parametrize("ghosts", [True, False], ids=["ghosts", "cubic"])
    @pytest.mark.parametrize("forward", [True, False], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("axis", [1, 2])
    @pytest.mark.parametrize("mode", [0, 1, 2], ids=["rate", "predict", "correct"])
    def test_rate_matches_ufunc_chains(
        self, ops, mode, axis, forward, ghosts, sourced, weighted
    ):
        for shape in RATE_SHAPES:
            _check_rate(ops, shape, mode, axis, forward, ghosts, sourced, weighted)

    @given(
        shape=st.tuples(st.integers(4, 13), st.integers(4, 13)),
        mode=st.integers(0, 2),
        axis=st.sampled_from([1, 2]),
        flags=st.tuples(*[st.booleans()] * 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_rate_on_drawn_shapes(self, ops, shape, mode, axis, flags):
        _check_rate(ops, shape, mode, axis, *flags)

    @pytest.mark.parametrize("axisymmetric", [True, False], ids=["axisym", "planar"])
    @pytest.mark.parametrize("radial", [False, True], ids=["axial", "radial"])
    @pytest.mark.parametrize("viscous", [True, False], ids=["viscous", "euler"])
    def test_flux_matches_fused(self, ops, viscous, radial, axisymmetric):
        for shape in FLUX_SHAPES:
            for mu_exp in (0.0, 0.7)[: 1 + viscous]:
                _check_flux(ops, shape, viscous, radial, axisymmetric, mu_exp)

    @given(
        shape=st.tuples(st.integers(5, 13), st.integers(5, 13)),
        flags=st.tuples(*[st.booleans()] * 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_flux_on_drawn_shapes(self, ops, shape, flags):
        _check_flux(ops, shape, *flags)

    @pytest.mark.parametrize("alias", ["flux", "q", "q_star"])
    def test_rate_refuses_an_aliased_output(self, ops, alias):
        """A sweep's corrector reads q, q_star and the flux while it writes
        ``out``: an ``out`` sharing memory with any of them is refused."""
        (_fused, comp), q = _fused_and_compiled("axis-mirror", True, 0.0, (7, 5))
        out = {"flux": comp._ws.F, "q": q[...], "q_star": comp._ws.q_star}[alias]
        with pytest.raises(ValueError, match="must not alias"):
            comp._cached_operators(1)[0].apply(q, 1e-3, out=out)


class TestPlanEntryPoints:
    """``k_sweep`` and ``k_filter_step`` — the step's sequences run from a
    plan — against the fused ``SplitOperator.apply`` and ``apply_filter``
    they replace, as bit patterns: every ghost rule, Euler and
    Navier-Stokes, constant and power-law viscosity, on shapes small enough
    that every line is an edge line."""

    @pytest.mark.parametrize(
        "physics", [(False, 0.0), (True, 0.0), (True, 0.7)],
        ids=["euler", "ns", "ns-power-law-mu"],
    )
    @pytest.mark.parametrize("rules", list(RULES))
    def test_plan_matches_fused(self, ops, rules, physics):
        for shape in ((5, 5), (7, 6)):
            (fused, comp), q = _fused_and_compiled(rules, *physics, shape)
            for variant in (1, 2):
                for want_op, got_op in zip(
                    fused._cached_operators(variant), comp._cached_operators(variant)
                ):
                    want = want_op.apply(q, 0.003, out=np.empty_like(q))
                    got = got_op.apply(q, 0.003, out=np.empty_like(q))
                    assert np.array_equal(_bits(got), _bits(want)), (variant, shape)
            want = fused.apply_filter(q.copy(), fused._ws)
            got = comp.apply_filter(q.copy(), comp._ws)
            assert np.array_equal(_bits(got), _bits(want)), shape

    def test_filter_takes_a_fresh_workspace(self, ops):
        """The harness's filter probe hands ``apply_filter`` a workspace of
        its own, not the solver's."""
        (fused, comp), q = _fused_and_compiled("axis-mirror", True, 0.0, (7, 5))
        fresh = get_backend("compiled").step_workspace(comp)
        want = fused.apply_filter(q.copy(), fused._ws)
        assert np.array_equal(_bits(comp.apply_filter(q.copy(), fresh)), _bits(want))

    @pytest.mark.parametrize(
        "operand",
        ["sweep:q", "sweep:out", "sweep:out-dtype", "sweep:out-layout", "filter:q"],
    )
    def test_a_mismatched_operand_is_refused(self, ops, operand):
        """A plan walks its operands with the dimensions it was filled for
        and writes through raw pointers: a narrower operand, a float32 or a
        non-contiguous ``out`` is a ``ValueError``, not a read or write past
        a buffer."""
        (_fused, comp), q = _fused_and_compiled("axis-mirror", True, 0.0, (7, 5))
        narrow, out = q[:, :, :4].copy(), np.empty_like(q)
        if operand == "filter:q":
            with pytest.raises(ValueError, match=r"q has shape \(4, 7, 4\), plan \(4, 7, 5\)"):
                comp.apply_filter(narrow, comp._ws)
            return
        q, out, match = {
            "sweep:q": (narrow, out, r"q \(4, 7, 4\) -> out \(4, 7, 5\)"),
            "sweep:out": (q, narrow, r"q \(4, 7, 5\) -> out \(4, 7, 4\)"),
            "sweep:out-dtype": (q, np.empty_like(q, np.float32), "got float32$"),
            "sweep:out-layout": (q, np.empty_like(q, order="F"), "float64, non-contiguous"),
        }[operand]
        with pytest.raises(ValueError, match=match):
            comp._cached_operators(1)[0].apply(q, 1e-3, out=out)

    @pytest.mark.parametrize("backend", ["fused", "baseline"])
    def test_another_backends_solver_is_refused(self, ops, backend):
        """The boundary plans borrow the solver's compiled outflow window:
        a compiled workspace for a fused or baseline jet solver is a
        ``ValueError`` that names the backend, not an ``AttributeError``
        mid-plan."""
        sc = jet_scenario(nx=16, nr=12)
        cfg = copy.deepcopy(sc.solver.config)
        cfg.backend = backend
        solver = CompressibleSolver(copy.deepcopy(sc.state), cfg)
        with pytest.raises(ValueError, match=f"compiled backend, not '{backend}'"):
            get_backend("compiled").step_workspace(solver)


class _Counted:
    """The kernel library with its entry-point calls counted per thread
    (a virtual cluster runs one rank per thread)."""

    def __init__(self, lib):
        self._lib = lib
        self.calls = defaultdict(Counter)

    def __getattr__(self, name):
        fn = getattr(self._lib, name)

        def counted(*args):
            self.calls[threading.get_ident()][name] += 1
            return fn(*args)

        return counted


def _calls_per_step(solver, counted, steps=10):
    """The foreign calls of each of ``steps`` steps, after a warm-up."""
    mine = counted.calls[threading.get_ident()]
    for _ in range(3):
        solver.step()
    per_step = []
    for _ in range(steps):
        mine.clear()
        solver.step()
        per_step.append(sum(mine.values()))
    return per_step


def test_a_step_is_four_foreign_calls(ops, monkeypatch):
    """Two sweeps, the filter and the boundaries: four calls of the
    library's entry points per step — serially and on each rank of a
    2-rank block split of the Navier-Stokes jet — the steps that
    re-evaluate ``dt`` (one in ten here) included."""
    counted = _Counted(ops._lib)
    monkeypatch.setattr(ops, "_lib", counted)
    sc = perturbed_jet(40, 16)
    config = copy.deepcopy(sc.solver.config)
    config.backend = "compiled"
    serial = CompressibleSolver(copy.deepcopy(sc.state), config)
    decomp = CartesianDecomposition(40, 16, 2, 1)
    ranks = VirtualCluster(2, timeout=60).run(
        lambda comm: _calls_per_step(
            BlockDistributedSolver(comm, sc.grid, sc.state.q, config, decomp), counted
        )
    )
    for per_step in (_calls_per_step(serial, counted), *ranks):
        assert per_step == [4] * 10


def test_steady_state_step_caches_no_new_pointer(ops, monkeypatch):
    """Every array a steady-state step hands the kernels is a persistent
    buffer: a per-step view or stack would cost ``CcOps._p`` a cache entry
    and a ``weakref.finalize`` per call."""
    for viscous in (True, False):
        sc = jet_scenario(nx=24, nr=12, viscous=viscous)
        cfg = copy.deepcopy(sc.solver.config)
        cfg.backend = "compiled"
        solver = CompressibleSolver(copy.deepcopy(sc.state), cfg)
        for _ in range(4):  # both variants, both state buffers
            solver.step()
        registered = []
        monkeypatch.setattr(
            compiled.weakref, "finalize", lambda *a: registered.append(a[0])
        )
        for _ in range(4):
            solver.step()
        monkeypatch.undo()
        assert not registered, [a.shape for a in registered]


def _compiler_or_skip():
    cc = _cc.find_compiler()
    if cc is None:
        pytest.skip("no C compiler")
    return cc


def test_marked_loops_vectorize():
    """Every ``/* vec */`` loop of the C units — primitives + flux, the
    stress row, the rate and combine rows, the filter rows — is reported
    vectorized by gcc in the unit that holds it, under the generic flags
    and under this host's: an edit that puts a branch or a may-alias
    pointer back into one fails here, not in a benchmark."""
    cc = _compiler_or_skip()
    version = subprocess.run([cc, "--version"], capture_output=True, text=True)
    if "Free Software Foundation" not in version.stdout:
        pytest.skip(f"{cc} is not gcc: no -fopt-info-vec")
    n_marked, missed = 0, []
    for flags in ((), _cc.HOST_CFLAGS):
        with tempfile.TemporaryDirectory() as tmp:
            reports = _cc.compile_units(cc, tmp, (*flags, "-fopt-info-vec-optimized"))
        for unit, text in _cc.UNITS.items():
            lines = text.split("\n")
            marked = {n for n, line in enumerate(lines, 1) if "/* vec */" in line}
            vectorized = {
                int(m.group(1))
                for m in re.finditer(
                    rf"{unit}\.c:(\d+):\d+: optimized: loop vectorized", reports[unit]
                )
            }
            n_marked += len(marked)
            missed += [
                (flags, unit, n, lines[n - 1].strip()) for n in sorted(marked - vectorized)
            ]
    assert n_marked >= 20
    assert not missed, missed


def test_compiler_host_resolves_the_cc_engine():
    """Where a compiler exists, the compiled backend runs the C kernels: a
    broken unit fails here instead of skipping the ``ops`` tests and
    leaving the compiled rows to run fused, bit-equal."""
    _compiler_or_skip()
    assert resolve_ops().engine == "cc"


def test_cold_cache_race_publishes_one_library(tmp_path):
    """Two processes that build into one empty cache at once get the same
    path, and leave one library and no build directory behind."""
    _compiler_or_skip()
    cache, ready = tmp_path / "cache", tmp_path / "ready"
    ready.mkdir()
    # Each builder waits until both have started, so both find the cache
    # empty and compile.
    code = (
        "import os, sys, time\n"
        "from repro.numerics.kernels import _cc\n"
        "open(os.path.join(sys.argv[1], str(os.getpid())), 'w').close()\n"
        "while len(os.listdir(sys.argv[1])) < 2:\n"
        "    time.sleep(0.001)\n"
        "print(_cc.build_library())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), REPRO_CC_CACHE=str(cache))
    builders = [
        subprocess.Popen(
            [sys.executable, "-c", code, str(ready)], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for _ in range(2)
    ]
    try:
        outs = [b.communicate(timeout=120) for b in builders]
    finally:
        for b in builders:
            b.kill()
            b.wait()
    assert [b.returncode for b in builders] == [0, 0], [err for _, err in outs]
    paths = {out.strip() for out, _ in outs}
    assert len(paths) == 1
    (path,) = paths
    assert os.listdir(cache) == [os.path.basename(path)]
    assert re.fullmatch(r"repro_kernels_[0-9a-f]{16}\.so", os.listdir(cache)[0])


def test_failed_unit_raises_its_diagnostics_and_leaves_nothing(tmp_path, monkeypatch):
    """A unit that lost a definition (here ``diff24``, which the rate rows
    call) fails the build — an implicit declaration is an error — with
    that unit's diagnostics; every compiler process has exited, and no
    library or build directory is left in the cache."""
    _compiler_or_skip()
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))
    broken = _cc.UNITS["inviscid"].replace("double diff24(", "double diff24_gone(")
    monkeypatch.setitem(_cc.UNITS, "inviscid", broken)
    started = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(_cc.subprocess, "Popen", recording_popen)
    with pytest.raises(RuntimeError, match=r"(?s)unit 'inviscid'.*diff24") as exc:
        _cc.build_library()
    assert "unit 'viscous'" not in str(exc.value)
    assert "unit 'filter_plans'" not in str(exc.value)
    assert len(started) == len(_cc.UNITS)
    assert all(proc.returncode is not None for proc in started)
    assert os.listdir(tmp_path) == []


@pytest.fixture(scope="module")
def generic_ops(tmp_path_factory):
    """The kernels built a second time, with the generic flags alone (as
    on a host whose ISA identity cannot be read), into a temporary cache."""
    _compiler_or_skip()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CC_CACHE", str(tmp_path_factory.mktemp("generic-cc")))
        mp.setattr(_cc, "isa_identity", lambda: None)
        return compiled.CcOps()


def _advance(sc, steps=20, **config):
    """``steps`` compiled steps of ``sc`` with ``config`` overrides."""
    cfg = copy.deepcopy(sc.solver.config)
    cfg.backend = "compiled"
    for name, value in config.items():
        setattr(cfg, name, value)
    return CompressibleSolver(copy.deepcopy(sc.state), cfg).run(steps).q


#: 20-step runs that take every plan variant the physics selects — the
#: stress kernel with a constant and a field viscosity, Euler, the planar
#: wrap ghosts — and a rank block, whose ghost lines are halo lines.
ISA_CASES = {
    "navier-stokes": lambda: _advance(perturbed_jet(40, 16)),
    "navier-stokes-power-law": lambda: _advance(perturbed_jet(40, 16), mu_exponent=0.7),
    "euler": lambda: _advance(perturbed_jet(40, 16, viscous=False)),
    "planar-periodic": lambda: _advance(periodic_advection_scenario(n=24)),
    "block-2x1": lambda: run(
        perturbed_jet(40, 16), steps=20, nprocs=2, backend="compiled", ledger=False
    ).state.q,
}


@pytest.mark.parametrize("case", sorted(ISA_CASES))
def test_host_isa_build_equals_the_generic_build(ops, generic_ops, monkeypatch, case):
    """The library built for this CPU's own vector unit and the one built
    with the generic flags step bit for bit alike: without contraction
    and fast-math every add, multiply, divide and sqrt rounds the same at
    any vector width."""
    assert generic_ops._lib._name != ops._lib._name
    monkeypatch.setattr(compiled, "_OPS", ops)
    host = ISA_CASES[case]()
    monkeypatch.setattr(compiled, "_OPS", generic_ops)
    generic = ISA_CASES[case]()
    assert np.isfinite(host).all()
    assert np.array_equal(_bits(host), _bits(generic))


def test_each_isa_identity_builds_its_own_library(tmp_path, monkeypatch):
    """A cache shared by two CPUs keeps one object per instruction set, so
    one CPU's vector instructions are never loaded on the other."""
    cc = _compiler_or_skip()
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))
    monkeypatch.setattr(_cc, "UNITS", {"tiny": "int tiny(void) { return 1; }\n"})
    paths = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for isa in ("fpu sse2 avx2", "fpu sse2 avx2 avx512f"):
            monkeypatch.setattr(_cc, "isa_identity", lambda isa=isa: isa)
            paths.append(_cc.build_library(cc))
            assert _cc.build_library(cc) == paths[-1]  # cached
    assert len(set(paths)) == 2
    assert sorted(os.listdir(tmp_path)) == sorted(map(os.path.basename, paths))


@pytest.mark.skipif(os.name != "posix", reason="the wrapper is a shell script")
def test_a_compiler_rejecting_the_host_flags_builds_generic(tmp_path, monkeypatch):
    """Where ``$REPRO_CC`` refuses ``-march=native``, the units are built
    again with the generic flags: the engine is still ``cc``, and nothing
    warns."""
    cc = shutil.which(_compiler_or_skip())
    log, wrapper = tmp_path / "calls.log", tmp_path / "cc-generic-only"
    wrapper.write_text(
        "#!/bin/sh\n"
        f'echo "$*" >> "{log}"\n'
        'for a in "$@"; do\n'
        '  if [ "$a" = -march=native ]; then echo "unsupported: $a" >&2; exit 1; fi\n'
        "done\n"
        f'exec "{cc}" "$@"\n'
    )
    wrapper.chmod(0o755)
    monkeypatch.setenv("REPRO_CC", str(wrapper))
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(_cc, "isa_identity", lambda: "fpu sse2 avx2 avx512f")
    monkeypatch.setattr(compiled, "_OPS", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_ops().engine == "cc"
    compiles = [call for call in log.read_text().splitlines() if " -c " in call]
    host = [call for call in compiles if "-march=native" in call]
    assert len(host) == len(_cc.UNITS)
    assert len(compiles) == 2 * len(_cc.UNITS)
