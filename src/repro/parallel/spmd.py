"""The distributed (SPMD) jet solver — one instance per rank.

:class:`BlockDistributedSolver` subclasses the serial
:class:`~repro.numerics.solver.CompressibleSolver` and overrides exactly the
points where subdomain boundaries appear, for *any* block decomposition
(axial, radial, or 2-D Cartesian) described by its
:class:`~repro.parallel.decomposition.HaloTopology`:

* viscous gradients receive neighbour ``(u, v, T)`` ghost lines on every
  decomposed axis;
* the one-sided flux stencils receive neighbour flux lines on the side the
  current predictor/corrector phase differences toward;
* the fourth-difference filter receives two conservative-state lines per
  decomposed axis;
* the stable ``dt`` is the all-reduce minimum of the per-block values;
* boundary treatments run only on the ranks owning them: inflow on ranks
  with no left neighbour, characteristic outflow on ranks with no right
  neighbour (a *collective* among radial neighbours when the radial axis is
  decomposed), axis mirror on ranks with no lower neighbour, and the
  far-field sponge on ranks with no upper neighbour.

All exchanges go through a per-rank
:class:`~repro.parallel.halo.ExchangePlan` with preallocated pack buffers,
so the fused :class:`~repro.numerics.kernels.StepWorkspace` works for every
decomposition.  Because every ghost is *real* neighbour data entering the
identical vectorized expressions, the distributed solver is
bitwise-identical to the serial solver for any decomposition, processor
count, communication version, and substrate — verified by the test suite.
This mirrors the paper's property that its parallelization changes
performance, never the numerics.
"""

from __future__ import annotations

import numpy as np

from ..grid import Grid
from ..msglib.api import Communicator
from ..numerics.boundary import (
    AXIS_STATE_SIGNS,
    apply_axis_ghosts,
    characteristic_outflow_rates,
)
from ..numerics.maccormack import PREDICTOR, SplitOperator, SweepWorkspace
from ..numerics.solver import CompressibleSolver, SolverConfig
from ..numerics.timestep import stable_dt
from ..obs import bind_rank
from ..physics.state import FlowState
from .halo import ExchangePlan, ExchangePolicy
from .versions import Version, version_by_number


class BlockDistributedSolver(CompressibleSolver):
    """Per-rank solver over any block decomposition.

    The caller picks the decomposition by passing ``decomp``; everything
    else — halo plumbing, fused-kernel workspace, filter halos, collective
    ``dt``, boundary ownership, gather, and checkpoint/restart — is decided
    by the decomposition's
    :class:`~repro.parallel.decomposition.HaloTopology`.

    Parameters
    ----------
    comm:
        A :class:`~repro.msglib.api.Communicator` (e.g. from a
        :class:`~repro.msglib.virtual.VirtualCluster`).
    global_grid:
        The full-domain grid.
    q_global:
        Full-domain conservative array to slice the local block from
        (shared read-only; each rank copies its block).
    config:
        The same :class:`~repro.numerics.solver.SolverConfig` the serial
        solver takes.
    decomp:
        The block decomposition (an
        :class:`~repro.parallel.decomposition.AxialDecomposition`,
        ``RadialDecomposition`` or ``CartesianDecomposition``); its
        ``nparts`` must equal ``comm.size``.
    version:
        Paper code version (5, 6 or 7) controlling message grouping.
    overlap:
        Overlapped (split-phase) flux-ghost exchange: ``True``/``False``
        forces it on/off; ``None`` (default) follows the version's
        :class:`~repro.parallel.halo.ExchangePolicy` — i.e. Version 6
        overlaps, the others block.  Requires a kernel workspace (fused
        or compiled backend); the baseline backend silently stays
        blocking.  Results are bitwise-identical either way.
    """

    def __init__(
        self,
        comm: Communicator,
        global_grid: Grid,
        q_global: np.ndarray,
        config: SolverConfig,
        decomp,
        version: int | Version = 5,
        overlap: bool | None = None,
    ) -> None:
        if decomp.nparts != comm.size:
            raise ValueError(
                f"decomposition has {decomp.nparts} blocks but the "
                f"communicator has {comm.size} ranks"
            )
        self.comm = comm
        self._overlap = False  # finalized below, after the workspace exists
        self.decomp = decomp
        self.topo = decomp.topology(comm.rank)
        self.left, self.right = self.topo.left, self.topo.right
        self.lower, self.upper = self.topo.lower, self.topo.upper
        if isinstance(version, int):
            version = version_by_number(version)
        self.version = version
        self.policy = ExchangePolicy.from_version(version)
        self.global_grid = global_grid
        xsl, rsl = decomp.local_block(comm.rank)
        local_grid = decomp.local_grid(global_grid, comm.rank)
        local_state = FlowState(
            local_grid, q_global[:, xsl, rsl].copy(), config.gamma
        )
        bc = config.boundary
        cap = decomp.top_radial_size()
        if (
            bc is not None
            and bc.sponge is not None
            and cap is not None
            and bc.sponge.width > cap
        ):
            raise ValueError("sponge width exceeds the top radial slab")
        super().__init__(local_state, config)
        self.fm.halo_axis = decomp.halo_axis
        # The overlapped rate path lives in the scratch-backed _rate_into,
        # so overlap needs a workspace; without one (baseline backend) the
        # solver degrades to the blocking exchange.
        requested = self.policy.overlap if overlap is None else overlap
        self._overlap = bool(requested) and self._ws is not None
        self.overlap = self._overlap
        self.plan = ExchangePlan(comm, self.topo, self.policy, self.state.q.shape)
        # Attribute this solver's spans to its rank (also bound as the
        # thread default so MacCormack-phase spans inherit it under MPI,
        # where no VirtualCluster worker does the binding).
        self._trace_rank = comm.rank
        bind_rank(comm.rank)
        # Baselines for per-step comm deltas in the streamed records.
        self._stream_comm_prev = (0.0, 0, 0)

    def _step_stream_record(self, dt: float, wall: float) -> dict:
        rec = super()._step_stream_record(dt, wall)
        stats = getattr(self.comm, "stats", None)
        if stats is not None:
            comm_s = stats.send_seconds + stats.recv_seconds
            sent = stats.bytes_sent
            recvd = stats.bytes_received
            p_comm, p_sent, p_recvd = self._stream_comm_prev
            rec["comm_ms"] = 1e3 * (comm_s - p_comm)
            rec["sent_bytes"] = sent - p_sent
            rec["halo_bytes"] = (sent - p_sent) + (recvd - p_recvd)
            self._stream_comm_prev = (comm_s, sent, recvd)
        faults = getattr(self.comm, "fault_stats", None)
        if faults is not None:
            rec["retries"] = (
                faults.retransmissions + faults.recv_retries
            )
            rec["lost"] = faults.lost_messages
        return rec

    # -- tags -----------------------------------------------------------------
    def _tag(self, op: str, phase: str = "") -> str:
        return f"{self.nstep}:{op}:{phase}"

    def _active_high(self, variant: int, phase: str) -> bool:
        """Forward differencing (consuming high ghosts) for this phase?"""
        return (variant == 1) == (phase == PREDICTOR)

    # -- halo-aware flux evaluation ------------------------------------------
    def _uvT_exchange(self, u, v, T, tag: str, include_x: bool = True):
        """Route the packed ``(u, v, T)`` edge lines per the topology.

        Returns the halo in the shape ``FluxModel`` expects for this
        decomposition's ``halo_axis``: an ``(lo, hi)`` pair for 1-axis
        decompositions, a ``{'x': pair, 'r': pair}`` dict for 2-D blocks,
        or ``None`` when nothing was exchanged.
        """
        axis = self.fm.halo_axis
        if axis == 0:
            if self.left is None and self.right is None:
                return None
            return self.plan.uvT(1, tag, u, v, T)
        if axis == 1:
            if self.lower is None and self.upper is None:
                return None
            return self.plan.uvT(2, tag, u, v, T)
        halo_x = None
        if include_x and (self.left is not None or self.right is not None):
            halo_x = self.plan.uvT(1, f"{tag}:hx", u, v, T)
        halo_r = None
        if self.lower is not None or self.upper is not None:
            halo_r = self.plan.uvT(2, f"{tag}:hr", u, v, T)
        if halo_x is None and halo_r is None:
            return None
        return {"x": halo_x, "r": halo_r}

    def _uvT_halo(self, q: np.ndarray, tag: str, include_x: bool = True):
        """Exchange the paper's velocity/temperature ghost lines."""
        if not self.fm.mu:
            return None
        u, v, T = self.fm.primitives(q)
        return self._uvT_exchange(u, v, T, tag, include_x)

    def _uvT_halo_fused(self, q: np.ndarray, tag: str):
        """Halo exchange with primitives evaluated once into the workspace.

        Returns ``(halo, primitives_ready)``: the workspace flux kernels
        skip their own primitive evaluation when the packing already did
        it (bitwise the same values either way).  Dispatching through
        ``ws.primitives_into`` keeps the evaluation on whichever backend
        owns the workspace (fused numpy or compiled native loops).
        """
        ws = self._ws
        fm = self.fm
        if not fm.mu:
            return None, False
        ws.primitives_into(fm, q)
        return self._uvT_exchange(ws.u, ws.v, ws.T, tag), True

    def _flux_x(self, q, phase):
        """Halo-aware axial flux (fused when a workspace exists)."""
        tag = self._tag("x", phase)
        ws = self._ws
        if ws is None:
            return self.fm.axial_flux(q, uvT_halo=self._uvT_halo(q, tag))
        halo, ready = self._uvT_halo_fused(q, tag)
        return self.fm.axial_flux(q, uvT_halo=halo, ws=ws, primitives_ready=ready)

    def _flux_r(self, q, phase):
        """Halo-aware radial flux (fused when a workspace exists)."""
        tag = self._tag("r", phase)
        ws = self._ws
        if ws is None:
            return self.fm.radial_flux(q, uvT_halo=self._uvT_halo(q, tag))
        halo, ready = self._uvT_halo_fused(q, tag)
        return self.fm.radial_flux(q, uvT_halo=halo, ws=ws, primitives_ready=ready)

    def _x_workspace(self, variant: int) -> SweepWorkspace:  # type: ignore[override]
        solver = self
        ws = self._ws
        flux = lambda q, phase: (solver._flux_x(q, phase), None)
        scratch = ws.sweep_x if ws is not None else None
        if not self.topo.exchanges_x:
            # The axial direction is not decomposed: cubic ghosts as in
            # the serial code.
            return SweepWorkspace(flux=flux, scratch=scratch)

        def high_ghosts(F, phase):
            # Forward differencing consumes high-side ghosts.
            if solver._active_high(variant, phase):
                return solver.plan.exchange(
                    "flux_high", 1, solver._tag("x", phase), F
                )
            return None

        def low_ghosts(F, phase):
            if not solver._active_high(variant, phase):
                return solver.plan.exchange(
                    "flux_low", 1, solver._tag("x", phase), F
                )
            return None

        post_ghosts = None
        if self._overlap:

            def post_ghosts(F, phase):
                # Split phase: deposit send legs + post the receive for
                # the side this phase differences toward; the provisional
                # pass uses cubic ghosts on both sides (the inactive side
                # is never read by the one-sided stencil, the in-flight
                # side is recomputed from the real ghosts at finish).
                high = solver._active_high(variant, phase)
                pending = solver.plan.exchange(
                    "flux_high" if high else "flux_low", 1,
                    solver._tag("x", phase), F, post=True,
                )
                return None, None, pending

        return SweepWorkspace(
            flux=flux,
            low_ghosts=low_ghosts,
            high_ghosts=high_ghosts,
            scratch=scratch,
            post_ghosts=post_ghosts,
        )

    def _radial_ghost_callbacks(self, variant: int, tag_op: str):
        """Low/high ghost providers for an r-sweep over a radial block."""
        solver = self

        def low_ghosts(rG, phase):
            if not solver._active_high(variant, phase):  # backward: low side
                # Every rank participates (the exchange's *send* leg must
                # run even on ranks with no lower neighbour, or their
                # upper neighbour deadlocks); ranks at the axis get None
                # back and mirror instead.
                ghosts = solver.plan.exchange(
                    "flux_low", 2, solver._tag(tag_op, phase), rG
                )
                if ghosts is None:
                    return apply_axis_ghosts(rG)
                return ghosts
            # Inactive side: values unused by the one-sided stencil.  Ranks
            # at the axis still mirror (matches serial); others extrapolate.
            if solver.lower is None:
                return apply_axis_ghosts(rG)
            return None

        def high_ghosts(rG, phase):
            if solver._active_high(variant, phase):
                # None at the far field selects cubic extrapolation, as in
                # the serial solver; the send leg runs on every rank.
                return solver.plan.exchange(
                    "flux_high", 2, solver._tag(tag_op, phase), rG
                )
            return None

        return low_ghosts, high_ghosts

    def _radial_post_ghosts(self, variant: int, tag_op: str):
        """Split-phase ghost supply for an r-sweep over a radial block.

        The provisional ghosts mirror the blocking callbacks' *local*
        decisions exactly: the axis rank mirrors across the axis on the
        low side (for the active-low case no receive is ever posted
        there, so the mirror is already final and ``finish`` returns
        ``None``); everywhere else the in-flight side extrapolates
        cubically and is recomputed at finish.
        """
        solver = self

        def post_ghosts(rG, phase):
            high = solver._active_high(variant, phase)
            pending = solver.plan.exchange(
                "flux_high" if high else "flux_low", 2,
                solver._tag(tag_op, phase), rG, post=True,
            )
            lo = apply_axis_ghosts(rG) if solver.lower is None else None
            return lo, None, pending

        return post_ghosts

    def _r_workspace(self, variant: int | None = None) -> SweepWorkspace:  # type: ignore[override]
        solver = self
        ws = self._ws
        scratch = ws.sweep_r if ws is not None else None
        flux = lambda q, phase: solver._flux_r(q, phase)
        if not self.topo.exchanges_r:
            # The radial direction is not decomposed: serial ghost logic
            # (axis mirror / periodic wrap / cubic) on every rank.
            base = self._r_workspace_serial()
            return SweepWorkspace(
                flux=flux,
                low_ghosts=base.low_ghosts,
                high_ghosts=base.high_ghosts,
                inv_weight=base.inv_weight,
                scratch=scratch,
            )
        if variant is None:
            # Requested by serial helpers; halo-free (used only on windows
            # fully interior to the block, which never happens here — the
            # outflow helper overrides below).
            return super()._r_workspace_serial()
        low, high = self._radial_ghost_callbacks(variant, "r")
        return SweepWorkspace(
            flux=flux,
            low_ghosts=low,
            high_ghosts=high,
            inv_weight=self._inv_weight,
            scratch=scratch,
            post_ghosts=(
                self._radial_post_ghosts(variant, "r")
                if self._overlap
                else None
            ),
        )

    def _operators(self, variant: int):  # type: ignore[override]
        Lx = SplitOperator(
            axis=1,
            h=self.grid.dx,
            variant=variant,
            workspace=self._x_workspace(variant),
        )
        Lr = SplitOperator(
            axis=2,
            h=self.grid.dr,
            variant=variant,
            workspace=self._r_workspace(variant),
        )
        return Lx, Lr

    # -- time step: global reduction ----------------------------------------
    def current_dt(self) -> float:  # type: ignore[override]
        cfg = self.config
        if cfg.dt is not None:
            return cfg.dt
        if (
            self._dt_cached is None
            or self.nstep % max(cfg.dt_recompute_every, 1) == 0
        ):
            local = stable_dt(
                self.state.q,
                self.grid.dx,
                self.grid.dr,
                cfl=cfg.cfl,
                mu=self.fm.mu,
                gamma=cfg.gamma,
            )
            self._dt_cached = self.comm.allreduce_min(
                local, tag=self._tag("dt")
            )
        return self._dt_cached

    # -- filter halos ---------------------------------------------------------
    def _state_ghosts(self, q: np.ndarray, axis: int, side: str):  # type: ignore[override]
        decomposed = self.topo.exchanges_x if axis == 1 else self.topo.exchanges_r
        if not decomposed:
            return super()._state_ghosts(q, axis, side)
        tag = f"{self._tag('filter')}:{'x' if axis == 1 else 'r'}"
        ghosts = self.plan.exchange(f"state_{side}", axis, tag, q)
        if (
            ghosts is None
            and axis == 2
            and side == "low"
            and self.config.axisymmetric
        ):
            signs = AXIS_STATE_SIGNS[:, None]
            return np.stack([signs * q[:, :, 0], signs * q[:, :, 1]])
        return ghosts

    # -- characteristic outflow -----------------------------------------------
    def _outflow_rates(self, q: np.ndarray, variant: int) -> np.ndarray:  # type: ignore[override]
        if not self.topo.exchanges_r:
            # The owning rank holds the full radial extent: the serial
            # (cached, halo-free) helper applies unchanged.
            return super()._outflow_rates(q, variant)
        # The outflow column is split across radial neighbours: the radial
        # part of the boundary rates needs neighbour rows, exchanged on the
        # 5-column window by all participating ranks symmetrically.  The
        # window shape differs from the state's, so this stays on the
        # allocating kernels regardless of backend.
        window = np.ascontiguousarray(q[:, -5:, :])
        tag = self._tag("ofw")
        # The serial helper uses one-sided x-gradients on the window (no
        # x-halo); only the radial ghosts are real neighbour data.
        halo = self._uvT_halo(window, f"{tag}:uvx", include_x=False)
        F = self.fm.axial_flux(window, uvT_halo=halo)
        h = self.grid.dx
        dF = (7.0 * (F[:, -1] - F[:, -2]) - (F[:, -2] - F[:, -3])) / (6.0 * h)

        solver = self

        def wflux(qw, phase):
            whalo = solver._uvT_halo(qw, f"{tag}:uvr:{phase}", include_x=False)
            return solver.fm.radial_flux(qw, uvT_halo=whalo)

        low, high = self._radial_ghost_callbacks(variant, "ofwr")
        ws = SweepWorkspace(
            flux=wflux,
            low_ghosts=low,
            high_ghosts=high,
            inv_weight=self._inv_weight,
        )
        Lr = SplitOperator(axis=2, h=self.grid.dr, variant=variant, workspace=ws)
        radial_rate = Lr._rate(window, PREDICTOR)[:, -1, :]
        return -dF + radial_rate

    # -- boundaries: only the owning ranks act --------------------------------
    def _apply_boundaries(self, q_tail: np.ndarray | None, dt: float, variant: int):  # type: ignore[override]
        bc = self.config.boundary
        if bc is None:
            return
        q = self.state.q
        if bc.characteristic_outflow and self.right is None:
            # When the radial axis is decomposed this is a *collective*
            # among the outflow-owning ranks (all of which have
            # ``right is None``): the window exchanges inside
            # ``_outflow_rates`` keep them in lockstep.
            q_t = self._outflow_rates(q_tail, variant)
            rates = characteristic_outflow_rates(
                q_tail[:, -1, :], q_t, self.config.gamma
            )
            q[:, -1, :] = q_tail[:, -1, :] + dt * rates
        if bc.inflow is not None and self.left is None:
            q[:, 0, :] = bc.inflow_column(self.grid.r, self.t, self.config.gamma)
        if (
            bc.sponge is not None
            and self._sponge_col is not None
            and self.upper is None
        ):
            bc.sponge.apply(q, self._sponge_col)

    # -- gathering ------------------------------------------------------------
    def gather_state(self) -> FlowState | None:
        """Assemble the global state on rank 0 (``None`` elsewhere)."""
        parts = self.comm.gather_arrays(self.state.q, tag=f"{self.nstep}:gather")
        if parts is None:
            return None
        return FlowState(
            self.global_grid, self.decomp.assemble(parts), self.config.gamma
        )

    # -- checkpoint/restart ----------------------------------------------------
    def checkpoint(self) -> tuple[int, float, np.ndarray] | None:
        """Gather a recoverable ``(nstep, t, q_global)`` snapshot on rank 0.

        All ranks must call this collectively (it is a gather); non-root
        ranks return ``None``.  The checkpointing runner stores the result
        in a :class:`~repro.parallel.checkpoint.CheckpointStore` outside
        the cluster so a crashed run can resume from it.
        """
        parts = self.comm.gather_arrays(self.state.q, tag=f"{self.nstep}:ckpt")
        if parts is None:
            return None
        return self.nstep, self.t, self.decomp.assemble(parts)
