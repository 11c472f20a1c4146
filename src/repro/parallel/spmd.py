"""The distributed (SPMD) jet solver — one instance per rank.

:class:`BlockDistributedSolver` subclasses the serial
:class:`~repro.numerics.solver.CompressibleSolver` and overrides exactly the
points where subdomain boundaries appear, for any ``px x pr`` block
decomposition, as described by the rank's
:class:`~repro.parallel.decomposition.HaloTopology`:

* viscous gradients receive neighbour ``(u, v, T)`` ghost lines on every
  split axis;
* the one-sided flux stencils receive neighbour flux lines on the side the
  current predictor/corrector phase differences toward;
* the fourth-difference filter receives two conservative-state lines per
  split axis;
* the stable ``dt`` is the all-reduce minimum of the per-block values;
* boundary treatments run only on the ranks owning them: inflow on ranks
  with no left neighbour, characteristic outflow on ranks with no right
  neighbour (a *collective* among radial neighbours when the radial axis is
  split), and the far-field sponge on ranks with no upper neighbour.

There is one boundary rule and it lives in the serial solver: a block side
with a neighbour takes the neighbour's lines through the rank's
:class:`~repro.parallel.halo.ExchangePlan`; a side on a physical boundary
takes exactly what the serial solver's halo-free workspace returns for
that side (axis mirror, cubic extrapolation or periodic wrap).  Because
every ghost is either *real* neighbour data or the serial solver's own
answer, entering the identical vectorized expressions, the distributed
solver is bitwise-identical to the serial solver for any decomposition,
processor count, communication version, and substrate — verified by the
test suite.  This mirrors the paper's property that its parallelization
changes performance, never the numerics.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import numpy as np

from ..grid import Grid
from ..msglib.api import Communicator
from ..numerics.boundary import characteristic_outflow_rates
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
        The :class:`~repro.parallel.decomposition.CartesianDecomposition`;
        its ``nparts`` must equal ``comm.size`` and it must not split a
        periodic axis.
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
        decomp.reject_split_periodic(config.periodic_x, config.periodic_r)
        self.comm = comm
        self._overlap = False  # finalized below, after the workspace exists
        self.decomp = decomp
        self.topo = decomp.topology(comm.rank)
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
        self._stream_comm_prev = (0.0, 0.0, 0, 0)

    def _step_stream_record(self, dt: float, wall: float) -> dict:
        rec = super()._step_stream_record(dt, wall)
        stats = getattr(self.comm, "stats", None)
        if stats is not None:
            comm_s = stats.send_seconds + stats.recv_seconds
            wait_s = stats.wait_seconds
            sent = stats.bytes_sent
            recvd = stats.bytes_received
            p_comm, p_wait, p_sent, p_recvd = self._stream_comm_prev
            rec["comm_ms"] = 1e3 * (comm_s - p_comm)
            rec["wait_ms"] = 1e3 * (wait_s - p_wait)
            rec["sent_bytes"] = sent - p_sent
            rec["halo_bytes"] = (sent - p_sent) + (recvd - p_recvd)
            self._stream_comm_prev = (comm_s, wait_s, sent, recvd)
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

    # -- halo-aware flux evaluation ------------------------------------------
    def _uvT_halo(self, q: np.ndarray, tag: str, include_x: bool = True):
        """Exchange the paper's velocity/temperature ghost lines."""
        if not self.fm.mu:
            return None
        u, v, T = self.fm.primitives(q)
        return self.plan.uvT(tag, u, v, T, include_x)

    def _flux(self, axis: int, q: np.ndarray, phase: str):
        """Halo-aware split flux along ``axis`` as ``(flux, source)``.

        With a workspace the primitives are evaluated once into it —
        through ``ws.primitives_into``, so on whichever backend owns the
        workspace — packed from there, and the flux kernels told to skip
        their own evaluation (bitwise the same values either way).
        """
        tag = self._tag("x" if axis == 1 else "r", phase)
        fm, ws = self.fm, self._ws
        evaluate = fm.axial_flux if axis == 1 else fm.radial_flux
        if ws is None:
            out = evaluate(q, uvT_halo=self._uvT_halo(q, tag))
        else:
            halo, ready = None, bool(fm.mu)
            if ready:
                ws.primitives_into(fm, q)
                halo = self.plan.uvT(tag, ws.u, ws.v, ws.T)
            out = evaluate(q, uvT_halo=halo, ws=ws, primitives_ready=ready)
        return (out, None) if axis == 1 else out

    # -- ghost supply ----------------------------------------------------------
    def _halo_sweep(
        self, axis: int, variant: int, op: str, base: SweepWorkspace, flux
    ) -> SweepWorkspace:
        """``base`` — the serial solver's workspace for this sweep — with
        the halo-aware ``flux`` and, on a split axis, the neighbours' flux
        lines on every side that has a neighbour.

        A side on a physical boundary keeps ``base``'s own ghost provider,
        so the mirror / cubic / wrap decision is the serial solver's.  The
        exchange runs once per phase, for the side that phase differences
        toward, on *every* rank of the axis — a boundary rank's send leg
        feeds its neighbour even though it gets ``None`` back.  The other
        side's planes are never read by the one-sided stencil, so toward a
        neighbour they are simply extrapolated.
        """
        if not self.topo.exchanges(axis):
            return dataclasses.replace(base, flux=flux)
        plan = self.plan
        lo_nb, hi_nb = self.topo.neighbours(axis)
        cubic = lambda F, phase: None  # extrapolate toward a neighbour
        local = {
            "low": base.low_ghosts if lo_nb is None else cubic,
            "high": base.high_ghosts if hi_nb is None else cubic,
        }

        # A phase differences forward — toward its high side — when
        # ``(variant == 1) == (phase == PREDICTOR)``.
        def provider(side):
            kind, high, fallback = f"flux_{side}", side == "high", local[side]

            def ghosts(F, phase):
                if ((variant == 1) == (phase == PREDICTOR)) == high:
                    lines = plan.exchange(kind, axis, self._tag(op, phase), F)
                    if lines is not None:
                        return lines
                return fallback(F, phase)

            return ghosts

        def post_ghosts(F, phase):
            # Split phase: deposit the send legs and post the receive for
            # the active side; the provisional pass runs on the local
            # ghosts, and the in-flight side is recomputed at finish.
            forward = (variant == 1) == (phase == PREDICTOR)
            pending = plan.exchange(
                "flux_high" if forward else "flux_low", axis,
                self._tag(op, phase), F, post=True,
            )
            return local["low"](F, phase), local["high"](F, phase), pending

        overlapped = self._overlap and base.scratch is not None
        return dataclasses.replace(
            base,
            flux=flux,
            low_ghosts=provider("low"),
            high_ghosts=provider("high"),
            post_ghosts=post_ghosts if overlapped else None,
        )

    def _operators(self, variant: int):
        def operator(axis, h, op, base):
            return SplitOperator(
                axis=axis,
                h=h,
                variant=variant,
                workspace=self._halo_sweep(
                    axis, variant, op, base, partial(self._flux, axis)
                ),
            )

        return (
            operator(1, self.grid.dx, "x", super()._x_workspace()),
            operator(2, self.grid.dr, "r", super()._r_workspace()),
        )

    def close(self) -> None:
        """Drop the cached split operators when the stepping loop ends.

        Their ghost providers refer back to this solver, a reference cycle
        through ``_ops_cache`` that would otherwise keep the whole step
        workspace (≈ 5 MB on the paper's grid) alive until a generation-2
        collection — which a process doing back-to-back runs never reaches.
        """
        self._ops_cache.clear()

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
        if self.topo.exchanges(axis):
            # Every rank of a split axis runs the exchange (its send leg
            # feeds the neighbour on the other side); ``None`` comes back
            # on a physical boundary.
            tag = f"{self._tag('filter')}:{'x' if axis == 1 else 'r'}"
            ghosts = self.plan.exchange(f"state_{side}", axis, tag, q)
            if ghosts is not None:
                return ghosts
        return super()._state_ghosts(q, axis, side)

    # -- characteristic outflow -----------------------------------------------
    def _outflow_rates(self, q: np.ndarray, variant: int) -> np.ndarray:  # type: ignore[override]
        """The serial helper on every outflow-owning rank that holds the
        full radial extent — on the window workspace of the rank's
        backend, like the serial solver's.  Where the radial axis is split
        the window is a *collective* among the radial neighbours, and that
        one stays on the allocating numpy kernels on every backend: its
        halo-aware fluxes and exchanges are window-shaped and per phase,
        and only ``1 x pr`` / ``px x pr`` grids pay it."""
        if not self.topo.exchanges_r:
            return super()._outflow_rates(q, variant)
        # The radial part of the boundary rates needs neighbour rows,
        # exchanged on the 5-column window by all participating ranks
        # symmetrically.
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

        ws = self._halo_sweep(
            2, variant, "ofwr", self._r_workspace_serial(), wflux
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
        if bc.characteristic_outflow and self.topo.right is None:
            # When the radial axis is decomposed this is a *collective*
            # among the outflow-owning ranks (all of which have
            # ``right is None``): the window exchanges inside
            # ``_outflow_rates`` keep them in lockstep.
            q_t = self._outflow_rates(q_tail, variant)
            rates = characteristic_outflow_rates(
                q_tail[:, -1, :], q_t, self.config.gamma
            )
            q[:, -1, :] = q_tail[:, -1, :] + dt * rates
        if bc.inflow is not None and self.topo.left is None:
            q[:, 0, :] = bc.inflow_column(self.grid.r, self.t, self.config.gamma)
        if (
            bc.sponge is not None
            and self._sponge_col is not None
            and self.topo.upper is None
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
