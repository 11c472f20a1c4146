"""The compiled "V6" kernel backend: the fused step as native C loops.

The paper's single-processor story is a V1→V5 ladder that kept the
algorithm fixed while recompiling the hot loops harder; this backend is
the same move one rung further.  The fused backend's numpy ufunc chains
are transcribed per element into the C translation unit in :mod:`_cc`,
built once with the system compiler (``-ffp-contract=off``, no
fast-math) and called through ctypes (:class:`CcOps`).  A
:class:`CompiledWorkspace` fills the step's *plans* from the solver — the
ghost rules, weights, viscosity and ownership that the Python step
sequenced between kernels, as C structs — so a step is four foreign
calls (two sweeps, the filter, the boundaries), and every solver layer —
serial, every decomposition, every substrate — inherits them without
touching the spatial or communication machinery: a distributed rank steps
its halo-extended block with these same plans, no ghost argument
anywhere.  Two things stay numpy because numpy's ``power`` and ``tanh``
are not libm's bit for bit: a power-law viscosity (one callback per flux)
and the inflow column.

There is exactly one engine.  On a host with no usable C toolchain
:func:`resolve_ops` raises :class:`BackendUnavailable` and
``step_workspace`` falls back to the fused workspace with a warning, so a
solver asked for ``"compiled"`` always runs (and, because the C kernels
are bitwise-equal to fused, always computes the same flow field).

**Tolerance policy.**  :class:`CcOps` declares ``bitwise = True`` because
every kernel replicates the fused op order with strict IEEE-754 double
arithmetic (no fast-math, no FMA, divisions stay divisions).  On a
platform where the toolchain cannot honour that (e.g. one that ignores
``-ffp-contract=off``), flip the flag to ``False``: the equivalence
lattice then asserts the pinned ULP bound
(``tests/test_lattice.py::ULP_BOUND``) instead of equality, and the run
fingerprint keeps ``"compiled"`` results in a separate cache identity
(see ``RunRequest.fingerprint``).
"""

from __future__ import annotations

import ctypes
import warnings
import weakref

import numpy as np

from ... import constants
from ...physics import eos
from ..boundary import AXIS_FLUX_SIGNS, AXIS_STATE_SIGNS, ghost_rules
from . import _cc
from .base import KernelBackend, StepWorkspace


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

    A step runs from the plans of a :class:`CompiledWorkspace`; the
    methods below are the kernels one at a time, whose shapes,
    optional-operand conventions and op orders mirror the fused numpy
    kernels one for one (``tests/test_compiled.py`` holds each to them).
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
        return self._p(self._const_row(x, n)), 0

    def plan(self, cls, **fields):
        """A ``cls`` plan with ``fields`` filled in: an array or plan field
        holds its address (``None`` is NULL), and the plan keeps the
        fields — what it points to — alive."""

        def address(v):
            if isinstance(v, tuple):
                return tuple(map(address, v))
            if isinstance(v, np.ndarray):
                return self._p(v)
            return ctypes.addressof(v) if isinstance(v, ctypes.Structure) else v

        plan = cls(**{k: address(v) for k, v in fields.items() if v is not None})
        plan.keep = fields
        return plan

    def _const_row(self, x, n):
        key = (n, float(x))
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = np.full(n, key[1])
        return row

    def prim_flux(self, q, gamma, F, radial, p, prims=None, w=None):
        """Primitives + the inviscid flux of one split direction into ``F``.

        With ``prims = (u, v, T)`` (Navier-Stokes) those and ``p`` are
        stored for :meth:`visc`, which also applies any ``r`` weight.
        Without (Euler) only ``p`` and the flux are, the flux times the
        per-``j`` weight ``w`` when given.
        """
        _nv, nx, nr = F.shape
        if q.shape != F.shape:
            raise ValueError(f"prim_flux: q has shape {q.shape}, F {F.shape}")
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
        # The kernel walks every operand it reads with out's dimensions.
        reads = (("f", f), ("source", source), ("q", q), ("q_star", q_star))
        for name, a in reads[: 2 + mode]:
            if a is not None and a.shape != out.shape:
                raise ValueError(
                    f"rate: {name} has shape {a.shape}, out {out.shape}"
                )
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
        if any(np.may_share_memory(out, a) for a in (f, q, q_star)[: mode + 1]):
            # The combine reads q / q_star rows while it writes out's.
            raise ValueError("rate: out must not alias the flux, q or q_star")
        self._lib.k_rate(
            self._p(f), self._p(gh), self._p(source), self._row(iw, nr)[0],
            self._p(out), nx, nr, axis, h, int(forward), mode, self._p(q),
            self._p(q_star), dt,
        )
        return out

#: The loaded ops (the library is built/loaded once per process).
_OPS: CcOps | None = None


def resolve_ops() -> CcOps:
    """Build (or reuse) the C kernel ops.

    Raises :class:`BackendUnavailable` when the host has no usable C
    toolchain; failures are not cached, so a later call retries.
    """
    global _OPS
    if _OPS is None:
        _OPS = CcOps()
    return _OPS




def _power_law(fm, T, mu, k):
    """The callback a power-law viscosity plan runs between primitives and
    stresses: ``mu = mu_ref * T**exp`` and ``k = mu / ((gamma - 1) Pr)``,
    numpy's ``power`` as in the fused backend's ``_mu``."""
    exp, mu_ref = fm.config.mu_exponent, fm.mu
    k_div = (fm.gamma - 1.0) * constants.PRANDTL

    def fill():
        np.power(T, exp, out=mu)
        np.multiply(mu, mu_ref, out=mu)
        np.divide(mu, k_div, out=k)

    return _cc.MuFn(fill)


class PlannedSweep:
    """``SplitOperator.apply`` as one foreign call: ``k_sweep`` on a plan.

    Holds the plan (which holds the buffers it points to), never the
    workspace, so a solver's workspace and operators form no cycle."""

    def __init__(self, ops: CcOps, plan):
        self._ops, self._plan = ops, plan
        self._addr = ctypes.addressof(plan)
        self.shape = (4, plan.nx, plan.nr)

    def apply(self, q: np.ndarray, dt: float, out: np.ndarray) -> np.ndarray:
        if q.shape != self.shape or out.shape != self.shape or out is q:
            raise ValueError(f"sweep: q {q.shape} -> out {out.shape}, plan {self.shape}")
        ops, q = self._ops, _c_contig(q)  # the binding outlives the call
        ops._lib.k_sweep(self._addr, ops._p(q), ops._p(out), dt)
        return out


class CompiledWorkspace(StepWorkspace):
    """A workspace whose step runs from plans over its buffers.

    :meth:`plan` fills them from the solver: a :class:`PlannedSweep` per
    (sweep axis, variant), the filter's, and one boundary plan per variant
    over the solver's outflow window (a second workspace of this class,
    which only lends its buffers).  The step's four foreign calls are the
    two sweeps, :meth:`filter` and :meth:`boundaries`.
    """

    def __init__(self, shape, viscous, mu_field, ops: CcOps):
        self.ops = ops
        super().__init__(shape, viscous, mu_field=mu_field)
        #: The source's one live row.
        self.S2 = self.S[2]
        #: The conductivity beside a power-law viscosity.
        self.k = np.empty(shape[1:]) if mu_field else None

    def _alloc_kernel_scratch(self, viscous: bool) -> None:
        """Nothing: the C loops keep every numpy temporary in registers."""

    def plan(self, solver) -> None:
        """Fill the step's plans from ``solver``: its flux model and
        configuration, its ownership of the physical sides and its
        outflow window, whose buffers the boundary plans borrow."""
        if not isinstance(solver._ws_window, CompiledWorkspace):
            raise ValueError(
                "a compiled workspace plans only a solver built with the "
                f"compiled backend, not {solver.backend.name!r}"
            )
        fm, bc = solver.fm, solver.config.boundary
        _nv, nx, nr = self.shape
        self.sweeps = {
            v: tuple(
                PlannedSweep(self.ops, self._sweep_plan(solver, axis, v))
                for axis in (1, 2)
            )
            for v in (1, 2)
        }
        self._filter = self.ops.plan(
            _cc.FilterPlan, scratch=self.rate, g=self.ghosts[1] + self.ghosts[2],
            signs=AXIS_STATE_SIGNS, nx=nx, nr=nr,
            rule=ghost_rules(fm.config, 1) + ghost_rules(fm.config, 2),
        )
        if bc is None:
            return
        win, sponge = solver._ws_window, bc.sponge
        owns_sponge = (
            sponge is not None and sponge.width > 0 and solver._owns_far_field
            and solver._sponge_col is not None
        )
        ramp = sponge.ramp(nr) if owns_sponge else np.empty(0)
        dF = np.empty((4, nr))
        self._bounds = {
            v: self.ops.plan(
                _cc.BoundPlan, ax=win._sweep_plan(solver, 1, v),
                rad=win._sweep_plan(solver, 2, v), dF=dF, rate=win.rate,
                ramp=ramp, amb=solver._sponge_col, nx=nx, nr=nr,
                nw=win.shape[1], width=ramp.size, h=fm.dx, gamma=fm.gamma,
                outflow=int(bc.characteristic_outflow and solver._owns_outflow),
            )
            for v in (1, 2)
        }

    def _sweep_plan(self, solver, axis: int, variant: int):
        """One split operator on this workspace's buffers: the flux of
        ``fused_axial_flux`` / ``fused_radial_flux``, and the ghost rules
        and weights of the solver's sweep workspaces."""
        fm = solver.fm
        _nv, nx, nr = self.shape
        radial, viscous = axis == 2, self.T is not None
        finish = radial and fm.config.axisymmetric  # F *= r, S2 = p - tau_tt
        ones = self.ops._const_row(1.0, nr)
        mu = k = fill = None
        if self.mu is not None:
            mu, k, fill = self.mu, self.k, _power_law(fm, self.T, self.mu, self.k)
        elif viscous:
            mu = self.ops._const_row(fm.mu, nr)
            k = self.ops._const_row(
                eos.conductivity(fm.mu, fm.gamma, constants.PRANDTL), nr
            )
        field = nr if self.mu is not None else 0
        iw = solver._inv_weight  # 1/r, or 1.0 on a planar domain
        return self.ops.plan(
            _cc.SweepPlan, F=self.F, p=self.S2 if finish and not viscous else self.p,
            u=self.u, v=self.v, T=self.T,
            tt=self.tau_tt if radial and viscous and not finish else None,
            S2=self.S2 if finish and viscous else None, q_star=self.q_star,
            g=self.ghosts[axis][0], src=self.S if radial else None,
            w=fm.r if finish else ones, fw=fm.r if finish and viscous else None,
            r=fm.r, iw=iw if radial and isinstance(iw, np.ndarray) else ones, mu=mu, k=k,
            signs=AXIS_FLUX_SIGNS, nx=nx, nr=nr, mu_stride=field, k_stride=field,
            h=fm.dr if radial else fm.dx, dx=fm.dx, dr=fm.dr, gamma=fm.gamma,
            axis=axis, fwd=int(variant == 1), rule=ghost_rules(fm.config, axis),
            fill_mu=fill,
        )

    def filter(self, q: np.ndarray, eps: float) -> np.ndarray:
        """``CompressibleSolver.apply_filter``, in place: ``k_filter_step``."""
        if q.shape != self.shape:
            raise ValueError(f"filter: q has shape {q.shape}, plan {self.shape}")
        self.ops._lib.k_filter_step(ctypes.addressof(self._filter), self.ops._p(q), eps)
        return q

    def boundaries(self, q, q_tail, inflow, dt: float, variant: int) -> None:
        """``CompressibleSolver._apply_boundaries``: ``k_boundaries`` on
        the state ``q``, the pre-step strip ``q_tail`` and the inflow
        column (``None`` where the block does not own the inflow)."""
        plan = self._bounds[variant]
        strip = (4, plan.nw, plan.nr) if plan.outflow else None
        if q.shape != self.shape or getattr(q_tail, "shape", None) != strip:
            raise ValueError(f"boundaries: q {q.shape} and strip need {self.shape}, {strip}")
        ops, inflow = self.ops, None if inflow is None else _c_contig(inflow)
        ops._lib.k_boundaries(
            ctypes.addressof(plan), ops._p(q), ops._p(q_tail),
            None if inflow is None else inflow.ctypes.data, dt,
        )


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
            return StepWorkspace(
                shape or solver.state.q.shape, viscous, mu_field=mu_field
            )
        ws = CompiledWorkspace(shape or solver.state.q.shape, viscous, mu_field, ops)
        if shape is None:  # the state's workspace, not the outflow window's
            ws.plan(solver)
        return ws
