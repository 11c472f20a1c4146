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
from ..maccormack import SweepScratch
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
        self._rows: dict[tuple[int, float], np.ndarray] = {}

    def _p(self, a):
        # ctypes reads raw memory: only C-contiguous float64 is legal.
        # ``ndarray.ctypes.data`` costs ~1µs per access, which dominates
        # small-kernel dispatch, so pointers are cached by array identity;
        # a finalizer evicts the entry when the array dies, before its id
        # (and address) can be reused.  Data pointers are immutable for a
        # live ndarray, so a cache hit is always the current pointer.
        # Every array a steady-state step hands over is a persistent
        # buffer (tests/test_compiled.py pins that): a per-step view or
        # stack would register a finalizer per call.
        if a is None:
            return None
        key = id(a)
        ptr = self._ptr_cache.get(key)
        if ptr is not None:
            return ptr
        assert a.dtype == np.float64 and a.flags.c_contiguous
        ptr = a.ctypes.data
        self._ptr_cache[key] = ptr
        weakref.finalize(a, self._ptr_cache.pop, key, None)
        return ptr

    def _row(self, x, n):
        """``(pointer, row stride)`` of a per-``j`` operand that is a
        ``(nx, n)`` field or a scalar.  A scalar rides as one constant row
        of length ``n`` (stride 0), so no inner loop carries a
        scalar-or-field branch."""
        if isinstance(x, np.ndarray):
            return self._p(x), n
        key = (n, float(x))
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = np.full(n, key[1])
        return self._p(row), 0

    def prim_flux(self, q, gamma, F, radial, p, prims=None, w=None):
        """Primitives + the inviscid flux of one split direction into ``F``.

        With ``prims = (u, v, T)`` (Navier-Stokes) those and ``p`` are
        stored for :meth:`visc`, which also applies any ``r`` weight.
        Without (Euler) only ``p`` and the flux are, the flux times the
        per-``j`` weight ``w`` when given.
        """
        _nv, nx, nr = F.shape
        q = _c_contig(q)
        if np.may_share_memory(F, q):
            raise ValueError("prim_flux: F must not alias q")
        if prims is not None and w is not None:
            raise ValueError("the Navier-Stokes flux takes its weight in visc")
        u, v, T = prims or (None, None, None)
        self._lib.k_prim_flux(
            self._p(q), gamma, self._p(u), self._p(v), self._p(p), self._p(T),
            self._p(F), self._row(1.0 if w is None else w, nr)[0], nx, nr,
            int(radial),
        )
        return F

    def visc(self, F, tau_tt, ws, r, mu, k, dx, dr, radial, finish=None):
        """Subtract the viscous flux from ``F``.  A radial call stores
        ``tau_tt``, or with ``finish = (w, S2)`` finishes the axisymmetric
        flux instead: ``F *= w`` and ``S2 = ws.p - tau_tt``."""
        nx, nr = ws.u.shape
        if nx < 3 or nr < 3:
            raise ValueError("viscous gradients need at least 3 points per axis")
        w, S2 = finish if finish is not None else (None, None)
        mu_p, mu_stride = self._row(mu, nr)
        k_p, k_stride = self._row(k, nr)
        self._lib.k_visc(
            self._p(F), self._p(tau_tt), self._p(S2), self._p(ws.u),
            self._p(ws.v), self._p(ws.T), self._p(ws.p), self._p(r),
            self._p(w), mu_p, mu_stride, k_p, k_stride, nx, nr, dx, dr,
            int(radial),
        )

    def rate(
        self, f, gh, axis, h, forward, source, iw, out,
        mode=0, q=None, q_star=None, dt=0.0,
    ):
        """``(source - D f) * iw`` along ``axis`` into ``out`` (``mode`` 0),
        or combined on the way — the rate itself is never stored — into
        the predictor's ``q + dt*rate`` (``mode`` 1) or the corrector's
        ``0.5*((q + q_star) + dt*rate)`` (``mode`` 2).

        ``gh`` holds the ghost planes of the side the one-sided stencil
        reaches past (high when ``forward``), ``None`` for cubic
        extrapolation; ``iw`` is the identity ``1.0`` or the per-``j``
        ``1/r`` array.
        """
        _nv, nx, nr = out.shape
        f = _c_contig(f)
        # The local binding keeps any contiguous ghost copy alive for the
        # duration of the foreign call (only its raw pointer is passed).
        gh = None if gh is None else _c_contig(np.asarray(gh))
        if gh is None and f.shape[axis] < 4:
            raise ValueError("cubic extrapolation needs at least 4 points")
        if f.shape[axis] < 2:
            raise ValueError("the one-sided stencil needs at least 2 points")
        if isinstance(iw, float):
            # Any other scalar would be mis-broadcast by the per-j kernels.
            if iw != 1.0:
                raise ValueError("compiled kernels require inv_weight 1.0 or 1/r")
        elif iw.size != nr:
            raise ValueError(f"inv_weight must hold {nr} values, got {iw.shape}")
        reads = (f, q, q_star) if mode == 2 else (f, q) if mode else (f,)
        if any(np.may_share_memory(out, a) for a in reads):
            # The combine reads q / q_star rows while it writes out's.
            raise ValueError("rate: out must not alias the flux, q or q_star")
        self._lib.k_rate(
            self._p(f), self._p(gh), self._p(source), self._row(iw, nr)[0],
            self._p(out), nx, nr, axis, h, int(forward), mode, self._p(q),
            self._p(q_star), dt,
        )
        return out

    def filter_apply(self, q, lo, hi, axis, eps, scratch):
        _nv, nx, nr = q.shape
        lo = None if lo is None else _c_contig(np.asarray(lo))
        hi = None if hi is None else _c_contig(np.asarray(hi))
        if (lo is None or hi is None) and q.shape[axis] < 4:
            raise ValueError("cubic extrapolation needs at least 4 points")
        if scratch.size < max(7 * nr, nr + 4):
            raise ValueError("filter scratch must hold 7 rows")
        self._lib.k_filter(
            self._p(q), self._p(lo), self._p(hi), self._p(scratch), eps,
            nx, nr, axis,
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
        iw = 1.0 / r
        for radial in (False, True):
            self.prim_flux(q, 1.4, ws.F, radial, ws.p, w=r)
            self.prim_flux(q, 1.4, ws.F, radial, ws.p, (ws.u, ws.v, ws.T))
            for mu in (0.01, ws.mu):
                k = eos.conductivity(mu, 1.4, constants.PRANDTL)
                self.visc(ws.F, ws.tau_tt, ws, r, mu, k, 0.1, 0.1, radial)
        self.visc(ws.F, None, ws, r, 0.01, 0.02, 0.1, 0.1, True, (r, ws.S[2]))
        for axis in (1, 2):
            gh = np.ones((2, 4, nx if axis == 2 else nr))
            for forward in (True, False):
                for ghost in (None, gh):
                    self.rate(ws.F, ghost, axis, 0.1, forward, None, 1.0, ws.rate)
                    self.rate(
                        ws.F, ghost, axis, 0.1, forward, ws.S, iw, ws.q_star,
                        2, q, ws.state_a, 0.01,
                    )
            self.filter_apply(ws.q_star, None, None, axis, 0.01, ws.rate)
            self.filter_apply(ws.q_star, gh, gh, axis, 0.01, ws.rate)


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
    while the per-element heavy lifting runs in native loops,
    bitwise-identically, in three passes over the grid per MacCormack
    phase: primitives + inviscid flux (:meth:`CcOps.prim_flux`), gradients
    + stress + the axisymmetric finish (:meth:`CcOps.visc`, Navier-Stokes
    only), one-sided difference + predictor/corrector combine
    (:meth:`CcOps.rate`) — and the fourth-difference filter in one more
    per axis.
    """

    def __init__(self, shape, viscous, mu_field, ops: CcOps):
        self.ops = ops
        super().__init__(shape, viscous, mu_field=mu_field)
        #: The source's one live row, bound once: ``self.S[2]`` would be a
        #: fresh view (and a pointer-cache entry) per call.
        self.S2 = self.S[2]
        self.prims = (self.u, self.v, self.T) if viscous else None

    def _alloc_kernel_scratch(self, viscous: bool) -> None:
        # The C loops keep every numpy temporary in registers.
        self.sweep_x = self.sweep_r = SweepScratch(
            None, self.q_star, self.rate, None, self.ops
        )

    def axial_flux(self, fm, q):
        ops = self.ops
        if not fm.mu:
            return ops.prim_flux(q, fm.gamma, self.F, False, self.p)
        ops.prim_flux(q, fm.gamma, self.F, False, self.p, self.prims)
        mu = _mu(fm, self)
        k = eos.conductivity(mu, fm.gamma, constants.PRANDTL)
        ops.visc(self.F, None, self, fm.r, mu, k, fm.dx, fm.dr, radial=False)
        return self.F

    def radial_flux(self, fm, q):
        ops = self.ops
        G = self.F
        axisymmetric = fm.config.axisymmetric
        if not fm.mu:
            # Euler: the source row is p - 0.0, a bitwise identity, so the
            # pressure is stored straight into it (planar: no source, no
            # weight).
            if axisymmetric:
                ops.prim_flux(q, fm.gamma, G, True, self.S2, w=fm.r)
            else:
                ops.prim_flux(q, fm.gamma, G, True, self.p)
            return G, self.S
        ops.prim_flux(q, fm.gamma, G, True, self.p, self.prims)
        mu = _mu(fm, self)
        k = eos.conductivity(mu, fm.gamma, constants.PRANDTL)
        if axisymmetric:
            finish = (fm.r, self.S2)  # G *= r and S2 = p - tau_tt, in the rows
            ops.visc(G, None, self, fm.r, mu, k, fm.dx, fm.dr, True, finish)
        else:
            ops.visc(G, self.tau_tt, self, fm.r, mu, k, fm.dx, fm.dr, True)
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
