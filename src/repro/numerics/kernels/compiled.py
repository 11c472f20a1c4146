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

    Inputs are only ever read, so a copy preserves bitwise identity; an
    output is written in place, so :meth:`CcOps._p` refuses one that is
    not kernel-ready.
    """
    if a.dtype == np.float64 and a.flags.c_contiguous:
        return a
    return np.ascontiguousarray(a, dtype=np.float64)


class CcOps:
    """The C kernels of ``_cc.py``, one shared object built from its
    translation units by the system compiler.

    A step runs from the plans of a :class:`CompiledWorkspace`; this
    class loads the library and turns arrays into the addresses the
    plans and entry points take.
    """

    engine = "cc"

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
        if a.dtype != np.float64 or not a.flags.c_contiguous:
            layout = "" if a.flags.c_contiguous else ", non-contiguous"
            raise ValueError(f"the C kernels take C-contiguous float64, got {a.dtype}{layout}")
        ptr = a.ctypes.data
        self._ptr_cache[key] = ptr
        weakref.finalize(a, self._ptr_cache.pop, key, None)
        return ptr

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
        #: The plan's state-shaped buffers (q_star, F, the source): the
        #: corrector reads them while it writes ``out``.
        self._held = [
            a for a in plan.keep.values()
            if isinstance(a, np.ndarray) and a.shape == self.shape
        ]

    def apply(self, q: np.ndarray, dt: float, out: np.ndarray) -> np.ndarray:
        if q.shape != self.shape or out.shape != self.shape:
            raise ValueError(f"sweep: q {q.shape} -> out {out.shape}, plan {self.shape}")
        if any(np.may_share_memory(out, a) for a in (q, *self._held)):
            raise ValueError("sweep: out must not alias q or a buffer of the plan")
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
