"""The compiled ("V6") kernel backend: differential + property wall.

The compiled backend replays the paper's Version 5-6 compiler rung — the
same physics, rebuilt as native loops in one cached C shared object.
Like the fused backend, it must change performance only, never results:

* the C engine declares a **tolerance policy** through its ``bitwise``
  flag — ``True`` (the default, honoured on this container) makes
  bitwise equality the acceptance bar, and a platform
  that cannot honour it (e.g. a toolchain ignoring ``-ffp-contract=off``)
  flips the flag and is held to the pinned :data:`ULP_BOUND` instead;
* the differential matrix mirrors ``tests/test_kernels.py``: Euler and
  Navier-Stokes, serial and all three decompositions, both substrates;
* selection mirrors the other backends: ``SolverConfig.backend`` (or
  ``run(..., backend=)``), and a clean ``BackendUnavailable`` fallback to
  the fused workspace (with a ``RuntimeWarning``, never a crash).
"""

import copy
import os
import re
import subprocess
import tempfile
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants, jet_scenario
from repro.api import run
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
from repro.numerics.solver import CompressibleSolver, FluxModel, SolverConfig
from repro.numerics.stencils import (
    backward_difference,
    extend_axis,
    forward_difference,
)
from repro.physics import eos
from repro.physics.viscous import stress_tensor

#: Maximum per-element ULP distance tolerated from a compiled engine that
#: cannot honour ``bitwise = True`` on its platform.  Engines that do
#: declare bitwise equality are held to exactly 0.
ULP_BOUND = 4


def _ulp_distance(a: np.ndarray, b: np.ndarray) -> int:
    """The largest per-element spacing count between two float64 arrays."""
    if np.array_equal(a, b):
        return 0
    ai = a.view(np.int64)
    bi = b.view(np.int64)
    # Map the sign-magnitude float ordering onto a monotonic integer line.
    ai = np.where(ai < 0, np.int64(-(2**63) + 1) - ai, ai)
    bi = np.where(bi < 0, np.int64(-(2**63) + 1) - bi, bi)
    return int(np.abs(ai - bi).max())


def assert_matches_policy(ops, got: np.ndarray, want: np.ndarray) -> None:
    """Bitwise when the engine promises it, pinned ULP bound otherwise."""
    if ops.bitwise:
        assert np.array_equal(got, want), (
            f"engine {ops.engine!r} declares bitwise=True but differs "
            f"(max ulp {_ulp_distance(got, want)})"
        )
    else:
        dist = _ulp_distance(got, want)
        assert dist <= ULP_BOUND, (
            f"engine {ops.engine!r} exceeds the {ULP_BOUND}-ulp tolerance "
            f"policy (max ulp {dist})"
        )


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
        assert ws.ops is None

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
    """compiled == fused, serial, under the engine's tolerance policy."""

    @pytest.mark.parametrize("viscous", [True, False],
                             ids=["navier-stokes", "euler"])
    def test_matches_fused(self, ops, viscous):
        want = _evolve("fused", viscous=viscous)
        got = _evolve("compiled", viscous=viscous)
        assert_matches_policy(ops, got, want)

    def test_matches_fused_mu_field(self, ops):
        """Sutherland-style variable viscosity hits the mu-array kernels."""
        want = _evolve("fused", mu_exp=0.7)
        got = _evolve("compiled", mu_exp=0.7)
        assert_matches_policy(ops, got, want)


class TestDifferentialDistributed:
    """compiled == fused == serial across every decomposition/substrate."""

    @pytest.mark.parametrize("scenario", ["jet", "jet-euler"])
    @pytest.mark.parametrize(
        "decomposition,nprocs,kw",
        [
            ("axial", 4, {}),
            ("radial", 2, {}),
            ("2d", 4, {"px": 2, "pr": 2}),
        ],
        ids=["axial-p4", "radial-p2", "2d-2x2"],
    )
    @pytest.mark.parametrize("substrate", ["virtual", "process"])
    def test_matches_serial_fused(
        self, ops, scenario, decomposition, nprocs, kw, substrate
    ):
        want = run(scenario, steps=4, nx=36, nr=18, backend="fused").state.q
        got = run(
            scenario, steps=4, nx=36, nr=18, backend="compiled",
            nprocs=nprocs, decomposition=decomposition, substrate=substrate,
            **kw,
        ).state.q
        assert_matches_policy(ops, got, want)


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


def _compiled_visc(ops, fm, ws, mu, flux, radial):
    out = flux.copy()
    k = eos.conductivity(mu, fm.gamma, constants.PRANDTL)
    ops.visc(
        out, ws.tau_tt if radial else None, ws, fm.r, mu, k, fm.dx, fm.dr, radial
    )
    return out


class TestGhostAwareViscousKernel:
    """The halo path of the viscous kernel: a block carrying its
    neighbours' ghost lines *in the array*.  ``ops.visc`` on it equals the
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
    args = (f, gh, axis, 0.07, forward, source, iw)
    want = _reference_rate(*args, mode, q, qs, 0.013)
    got = ops.rate(*args, np.empty_like(f), mode, q, qs, 0.013)
    assert np.array_equal(_bits(got), _bits(want))


def _flux_case(nx, nr, viscous, axisymmetric, mu_exp, seed=0):
    """A flux model over an ``nx x nr`` slab and a random physical state."""
    rng = np.random.default_rng(seed)
    cfg = SolverConfig(
        viscous=viscous, mu=0.01, axisymmetric=axisymmetric, mu_exponent=mu_exp
    )
    fm = FluxModel((np.arange(nr) + 0.5) * 0.07, 0.1, 0.07, cfg)
    rho = 1.0 + 0.2 * rng.random((nx, nr))
    u, v = 0.3 * rng.standard_normal((2, nx, nr))
    p = 1.0 + 0.2 * rng.random((nx, nr))
    q = np.stack([rho, rho * u, rho * v, eos.total_energy(rho, u, v, p, 1.4)])
    return fm, q


def _check_flux(ops, shape, viscous, radial, axisymmetric, mu_exp=0.0):
    fm, q = _flux_case(*shape, viscous, axisymmetric, mu_exp)
    mu_field = viscous and mu_exp != 0.0
    ref = StepWorkspace(q.shape, viscous, mu_field)
    cws = CompiledWorkspace(q.shape, viscous, mu_field, ops)
    if radial:
        want, want_S = fused_radial_flux(fm, q, ref)
        got, got_S = cws.radial_flux(fm, q)
        assert np.array_equal(_bits(got_S), _bits(want_S))
    else:
        want, got = fused_axial_flux(fm, q, ref), cws.axial_flux(fm, q)
    assert np.array_equal(_bits(got), _bits(want))
    if viscous:  # the primitives the stress kernel read
        for name in ("u", "v", "p", "T"):
            assert np.array_equal(
                _bits(getattr(cws, name)), _bits(getattr(ref, name))
            ), name


#: Shapes that reach the edge code: the smallest a cubic extrapolation and
#: a viscous gradient take, and the outflow helper's 5-column window.
RATE_SHAPES = [(4, 4), (5, 4), (5, 9)]
FLUX_SHAPES = RATE_SHAPES + [(3, 7)]


class TestFusedEntryPoints:
    """The kernels that fuse several numpy chains into one pass — the rate
    with its combine, primitives with the inviscid flux, the stress kernel
    with the axisymmetric finish — against those chains, bit for bit
    (signed zeros included)."""

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
            _check_flux(ops, shape, viscous, radial, axisymmetric)
        if viscous:
            _check_flux(ops, (5, 9), viscous, radial, axisymmetric, mu_exp=0.7)

    @given(
        shape=st.tuples(st.integers(3, 13), st.integers(3, 13)),
        flags=st.tuples(*[st.booleans()] * 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_flux_on_drawn_shapes(self, ops, shape, flags):
        _check_flux(ops, shape, *flags)

    @pytest.mark.parametrize("alias", ["flux", "q", "q_star"])
    def test_rate_refuses_an_aliased_output(self, ops, alias):
        """The combine reads rows of q / q_star while it writes out's."""
        f, q, qs, _gh, _source, _iw = _rate_case(5, 4, 1)
        out = {"flux": f, "q": q, "q_star": qs}[alias]
        with pytest.raises(ValueError, match="must not alias"):
            ops.rate(f, None, 1, 0.1, True, None, 1.0, out, 2, q, qs, 0.01)


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


def test_marked_loops_vectorize():
    """Every ``/* vec */`` loop of the C source — primitives + flux, the
    stress row, the rate and combine rows, the filter rows — is reported
    vectorized by gcc under the pinned flags: an edit that puts a branch
    or a may-alias pointer back into one fails here, not in a benchmark."""
    cc = _cc.find_compiler()
    if cc is None:
        pytest.skip("no C compiler")
    version = subprocess.run([cc, "--version"], capture_output=True, text=True)
    if "Free Software Foundation" not in version.stdout:
        pytest.skip(f"{cc} is not gcc: no -fopt-info-vec")
    lines = _cc.SOURCE.split("\n")
    marked = {n for n, line in enumerate(lines, 1) if "/* vec */" in line}
    assert len(marked) >= 10
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "k.c")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(_cc.SOURCE)
        proc = subprocess.run(
            [cc, *_cc.CFLAGS, "-fopt-info-vec-optimized", src,
             "-o", os.path.join(tmp, "k.so")],
            capture_output=True, text=True, check=True,
        )
    vectorized = {
        int(m.group(1))
        for m in re.finditer(r"k\.c:(\d+):\d+: optimized: loop vectorized", proc.stderr)
    }
    missed = sorted(marked - vectorized)
    assert not missed, [(n, lines[n - 1].strip()) for n in missed]
