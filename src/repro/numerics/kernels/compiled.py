"""The compiled "V6" kernel backend: the fused step as native C loops.

The paper's single-processor story is a V1→V5 ladder that kept the
algorithm fixed while recompiling the hot loops harder; this backend is
the same move one rung further.  The fused backend's numpy ufunc chains
are transcribed per element into the C translation unit in :mod:`_cc`,
built once with the system compiler (``-ffp-contract=off``, no
fast-math), called through ctypes (:class:`CcOps`) and dispatched through
a :class:`CompiledWorkspace`, so every solver layer — serial, every
decomposition, every substrate — inherits the speedup without touching
the spatial or communication machinery: a distributed rank steps its
halo-extended block with these same kernels, no ghost argument anywhere.

There is exactly one engine.  On a host with no usable C toolchain
:func:`resolve_ops` raises :class:`BackendUnavailable` and
``step_workspace`` falls back to the fused workspace with a warning, so a
solver asked for ``"compiled"`` always runs (and, because the C kernels
are bitwise-equal to fused, always computes the same flow field).

**Tolerance policy.**  :class:`CcOps` declares ``bitwise = True`` because
every kernel replicates the fused op order with strict IEEE-754 double
arithmetic (no fast-math, no FMA, divisions stay divisions).  On a
platform where the toolchain cannot honour that (e.g. one that ignores
``-ffp-contract=off``), flip the flag to ``False``: the differential
tests then assert the pinned ULP bound
(``tests/test_compiled.py::ULP_BOUND``) instead of equality, and the run
fingerprint keeps ``"compiled"`` results in a separate cache identity
(see ``RunRequest.fingerprint``).
"""

from __future__ import annotations

import warnings
import weakref

import numpy as np

from ... import constants
from ...physics import eos
from . import _cc
from .base import KernelBackend, StepWorkspace
from .fused import _mu


class BackendUnavailable(RuntimeError):
    """The C kernels cannot be built or loaded on this host."""


def _c_contig(a: np.ndarray) -> np.ndarray:
    """The array itself when kernel-ready, else a C-contiguous copy.

    Inputs are only ever read, so a copy preserves bitwise identity; all
    output buffers are workspace-owned and already contiguous float64.
    """
    if a.dtype == np.float64 and a.flags.c_contiguous:
        return a
    return np.ascontiguousarray(a, dtype=np.float64)


def _ghost_planes(gh):
    """A ghost-plane provider result as a kernel-ready array, or ``None``.

    Providers return ``(2, 4, plane)`` stacks (or ``None`` for cubic
    extrapolation); this forces the contiguous float64 layout the kernels
    index directly.
    """
    return None if gh is None else _c_contig(np.asarray(gh))


def _iw_array(iw):
    """The per-``j`` 1/r weight as a 1-D array, or ``None`` for identity.

    ``inv_weight`` is either the identity (axial sweeps, planar mode) or
    the broadcastable ``(1, 1, nr)`` 1/r array of a radial sweep; any
    other scalar would be silently mis-broadcast by the per-``j`` kernels
    and is rejected.
    """
    if iw is None:
        return None
    if isinstance(iw, float):
        if iw != 1.0:
            raise ValueError("compiled kernels require inv_weight 1.0 or 1/r")
        return None
    return np.ascontiguousarray(iw).reshape(-1)


class CcOps:
    """The C translation unit in ``_cc.py`` via the system compiler.

    The workspace, the MacCormack operators and the filter dispatch their
    per-element chains through these methods; shapes, optional-operand
    conventions and op orders mirror the fused numpy kernels one for one.
    """

    engine = "cc"
    #: The kernels produce bitwise-identical doubles to the fused backend.
    #: See the module docstring for the policy when a platform cannot.
    bitwise = True

    def __init__(self):
        try:
            self._lib = _cc.load_library()
        except (RuntimeError, OSError) as exc:
            raise BackendUnavailable(str(exc)) from exc
        self._ptr_cache: dict[int, int] = {}

    def _p(self, a):
        # ctypes reads raw memory: only C-contiguous float64 is legal.
        # ``ndarray.ctypes.data`` costs ~1µs per access, which dominates
        # small-kernel dispatch, so pointers are cached by array identity;
        # a finalizer evicts the entry when the array dies, before its id
        # (and address) can be reused.  Data pointers are immutable for a
        # live ndarray, so a cache hit is always the current pointer.
        key = id(a)
        ptr = self._ptr_cache.get(key)
        if ptr is not None:
            return ptr
        assert a.dtype == np.float64 and a.flags.c_contiguous
        ptr = a.ctypes.data
        self._ptr_cache[key] = ptr
        weakref.finalize(a, self._ptr_cache.pop, key, None)
        return ptr

    def prim(self, q, gamma, inv_rho, u, v, p, T):
        n = q[0].size
        self._lib.k_prim(
            self._p(q), gamma, self._p(inv_rho), self._p(u), self._p(v),
            self._p(p), self._p(T) if T is not None else None, n,
        )

    def ax_inv(self, q, u, v, p, F):
        self._lib.k_ax_inv(
            self._p(q), self._p(u), self._p(v), self._p(p), self._p(F), u.size
        )

    def rad_inv(self, q, u, v, p, G):
        self._lib.k_rad_inv(
            self._p(q), self._p(u), self._p(v), self._p(p), self._p(G), u.size
        )

    def visc(self, F, tau_tt, ws, r, mu, k, dx, dr, radial):
        """Subtract the viscous flux from ``F`` (and store ``tau_tt`` when
        ``radial``)."""
        nx, nr = ws.u.shape
        if nx < 3 or nr < 3:
            raise ValueError("viscous gradients need at least 3 points per axis")
        has_mu = isinstance(mu, np.ndarray)
        has_k = isinstance(k, np.ndarray)
        self._lib.k_visc(
            self._p(F), self._p(tau_tt) if tau_tt is not None else None,
            self._p(ws.u), self._p(ws.v), self._p(ws.T), self._p(r),
            self._p(mu) if has_mu else None, 0.0 if has_mu else float(mu),
            self._p(k) if has_k else None, 0.0 if has_k else -float(k),
            nx, nr, dx, dr, int(radial),
        )

    def rad_finish(self, G, S2, p, tau_tt, r, viscous):
        nx, nr = p.shape
        self._lib.k_rad_finish(
            self._p(G), self._p(S2), self._p(p),
            self._p(tau_tt) if tau_tt is not None else None,
            self._p(r), nx, nr, int(viscous),
        )

    def rate(self, f, lo, hi, axis, h, forward, source, iw, out):
        _nv, nx, nr = out.shape
        f = _c_contig(f)
        # The local binding keeps any contiguous ghost copy alive for the
        # duration of the foreign call (only its raw pointer is passed).
        gh = _ghost_planes(hi if forward else lo)
        if gh is None and f.shape[axis] < 4:
            raise ValueError("cubic extrapolation needs at least 4 points")
        iw1 = _iw_array(iw)
        self._lib.k_rate(
            self._p(f),
            self._p(gh) if gh is not None else None,
            self._p(source) if source is not None else None,
            self._p(iw1) if iw1 is not None else None,
            self._p(out), nx, nr, axis, h, int(forward),
        )
        return out

    def predictor(self, q, rate, dt, q_star):
        self._lib.k_predict(
            self._p(q), self._p(rate), dt, self._p(q_star), q_star.size
        )

    def corrector(self, q, q_star, rate, dt, out):
        self._lib.k_correct(
            self._p(q), self._p(q_star), self._p(rate), dt, self._p(out),
            out.size,
        )

    def filter_apply(self, q, lo, hi, axis, eps, scratch):
        _nv, nx, nr = q.shape
        lo_a = _ghost_planes(lo)
        hi_a = _ghost_planes(hi)
        if (lo_a is None or hi_a is None) and q.shape[axis] < 4:
            raise ValueError("cubic extrapolation needs at least 4 points")
        self._lib.k_filter(
            self._p(q),
            self._p(lo_a) if lo_a is not None else None,
            self._p(hi_a) if hi_a is not None else None,
            self._p(scratch), eps, nx, nr, axis,
        )

    def warmup(self) -> None:
        """Run every kernel once on a tiny grid: a smoke test of the
        freshly loaded library at backend resolution, never inside a
        benchmarked or traced step."""
        nx, nr = 5, 4
        q = np.ascontiguousarray(
            1.0 + 0.01 * np.arange(4 * nx * nr, dtype=np.float64)
        ).reshape(4, nx, nr)
        ws = StepWorkspace((4, nx, nr), viscous=True, mu_field=True)
        r = np.linspace(0.5, 2.0, nr)
        self.prim(q, 1.4, ws.inv_rho, ws.u, ws.v, ws.p, ws.T)
        self.prim(q, 1.4, ws.inv_rho, ws.u, ws.v, ws.p, None)
        self.ax_inv(q, ws.u, ws.v, ws.p, ws.F)
        self.rad_inv(q, ws.u, ws.v, ws.p, ws.F)
        for radial in (False, True):
            for mu in (0.01, ws.mu):
                k = eos.conductivity(mu, 1.4, constants.PRANDTL)
                self.visc(ws.F, ws.tau_tt, ws, r, mu, k, 0.1, 0.1, radial)
        for viscous in (True, False):
            self.rad_finish(ws.F, ws.S[2], ws.p, ws.tau_tt, r, viscous)
        iw = 1.0 / r
        for axis in (1, 2):
            gh = np.ones((2, 4, nx if axis == 2 else nr))
            for forward in (True, False):
                for ghost in (None, gh):
                    self.rate(
                        q, ghost, ghost, axis, 0.1, forward, None, 1.0,
                        ws.rate,
                    )
                    self.rate(
                        q, ghost, ghost, axis, 0.1, forward, ws.S,
                        iw[None, None, :], ws.rate,
                    )
            self.filter_apply(ws.q_star, None, None, axis, 0.01, ws.rate[0])
            self.filter_apply(ws.q_star, gh, gh, axis, 0.01, ws.rate[0])
        self.predictor(q, ws.rate, 0.01, ws.q_star)
        self.corrector(q, ws.q_star, ws.rate, 0.01, ws.tmp3)


#: The warm ops (the library is built/loaded once per process).
_OPS: CcOps | None = None


def resolve_ops() -> CcOps:
    """Build (or reuse) the C kernel ops.

    Raises :class:`BackendUnavailable` when the host has no usable C
    toolchain; failures are not cached, so a later call retries.
    """
    global _OPS
    if _OPS is None:
        ops = CcOps()
        ops.warmup()
        _OPS = ops
    return _OPS


class CompiledWorkspace(StepWorkspace):
    """A fused workspace whose hot kernels dispatch to the C kernels.

    Boundary treatment stays numpy-side, identical to the fused backend,
    while the per-element heavy lifting (primitives, flux assembly,
    gradients, stress application, 2-4 differences, predictor/corrector
    combines, the fourth-difference filter) runs in native loops,
    bitwise-identically.
    """

    def __init__(self, shape, viscous, mu_field, ops: CcOps):
        super().__init__(shape, viscous, mu_field=mu_field)
        self.ops = ops
        self.sweep_x.ops = ops
        self.sweep_r.ops = ops

    def axial_flux(self, fm, q):
        ops = self.ops
        q = _c_contig(q)
        viscous = bool(fm.mu)
        ops.prim(
            q, fm.gamma, self.inv_rho, self.u, self.v, self.p,
            self.T if viscous else None,
        )
        ops.ax_inv(q, self.u, self.v, self.p, self.F)
        if not viscous:
            return self.F
        mu = _mu(fm, self)
        k = eos.conductivity(mu, fm.gamma, constants.PRANDTL)
        ops.visc(self.F, None, self, fm.r, mu, k, fm.dx, fm.dr, radial=False)
        return self.F

    def radial_flux(self, fm, q):
        ops = self.ops
        q = _c_contig(q)
        viscous = bool(fm.mu)
        ops.prim(
            q, fm.gamma, self.inv_rho, self.u, self.v, self.p,
            self.T if viscous else None,
        )
        G = self.F
        ops.rad_inv(q, self.u, self.v, self.p, G)
        if viscous:
            mu = _mu(fm, self)
            k = eos.conductivity(mu, fm.gamma, constants.PRANDTL)
            ops.visc(
                G, self.tau_tt, self, fm.r, mu, k, fm.dx, fm.dr, radial=True
            )
        if not fm.config.axisymmetric:
            return G, self.S  # planar: unweighted flux, all-zero source
        ops.rad_finish(
            G, self.S[2], self.p, self.tau_tt if viscous else None,
            fm.r, viscous,
        )
        return G, self.S


class CompiledBackend(KernelBackend):
    """Registry entry: compiled kernels with a clean fallback to fused."""

    name = "compiled"

    def available(self) -> bool:
        """True when the C kernels can be built and loaded on this host."""
        try:
            resolve_ops()
        except BackendUnavailable:
            return False
        return True

    def ops(self) -> CcOps:
        """The resolved (warm) kernel ops; raises BackendUnavailable."""
        return resolve_ops()

    def step_workspace(self, solver, shape=None) -> StepWorkspace:
        viscous = bool(solver.fm.mu)
        mu_field = viscous and solver.config.mu_exponent != 0.0
        shape = shape or solver.state.q.shape
        try:
            ops = resolve_ops()
        except BackendUnavailable as exc:
            warnings.warn(
                f"compiled backend unavailable ({exc}); "
                "falling back to the fused numpy kernels "
                "(bitwise-identical, slower)",
                RuntimeWarning,
                stacklevel=2,
            )
            return StepWorkspace(shape, viscous, mu_field=mu_field)
        return CompiledWorkspace(shape, viscous, mu_field, ops)
