"""The distributed (SPMD) jet solver — one instance per rank.

:class:`BlockDistributedSolver` *is* the serial
:class:`~repro.numerics.solver.CompressibleSolver`, stepping the rank's
block extended by ``H`` = :func:`~repro.parallel.halo.halo_depth` ghost
lines on every side that has a neighbour.  At the top of each step the
rank's :class:`~repro.parallel.halo.ExchangePlan` overwrites those lines
with the neighbours' owned lines — one message per neighbour — and then
the serial step runs unchanged: same sweeps, same filter, same kernels of
whichever backend, no ghost argument anywhere.  The extended block's outer
edge is a fake boundary whose cubic / one-sided closures are wrong, but
one step carries that error at most ``H`` lines inward: exactly the ghost
lines, all of which the next refresh overwrites.  So the owned cells are
bit-equal to the global serial step for every decomposition, processor
count, version, substrate and backend — a requirement (the halo is one
line too shallow otherwise), not a hope; ``tests/test_lattice.py`` pins
both directions.  The redundant arithmetic on the ghost lines is the price
of one startup per neighbour per step instead of six dependent ones.

Only *ownership* is decided here, read off the rank's
:class:`~repro.parallel.decomposition.HaloTopology`:

* the stable ``dt`` is taken over the owned cells and min-reduced;
* the serial boundary treatments run on the sides a block owns: inflow on
  the ranks with no left neighbour, the characteristic outflow on those
  with no right neighbour (the serial helper, on a pre-step strip whose
  radial ghosts are fresh), the far-field sponge on those with no upper
  neighbour;
* gather and checkpoint ship the owned slice.

This mirrors the paper's property that its parallelization changes
performance, never the numerics.
"""

from __future__ import annotations

import numpy as np

from ..grid import Grid
from ..msglib.api import Communicator
from ..numerics.solver import CompressibleSolver, SolverConfig
from ..obs import bind_rank
from ..physics.state import FlowState
from .halo import ExchangePlan, describe_depth, halo_depth
from .versions import Version, version_by_number


class BlockDistributedSolver(CompressibleSolver):
    """Per-rank solver over any block decomposition.

    Parameters
    ----------
    comm:
        A :class:`~repro.msglib.api.Communicator` (e.g. from a
        :class:`~repro.msglib.virtual.VirtualCluster`).
    global_grid:
        The full-domain grid.
    q_global:
        Full-domain conservative array to slice the extended block from
        (shared read-only; each rank copies its block).
    config:
        The same :class:`~repro.numerics.solver.SolverConfig` the serial
        solver takes.
    decomp:
        The :class:`~repro.parallel.decomposition.CartesianDecomposition`;
        its ``nparts`` must equal ``comm.size``, it must not split a
        periodic axis, and no block of a split axis may be thinner than
        the halo is deep.
    version:
        Paper code version (5, 6 or 7): how the halo travels.  Version 6
        posts the halo receive instead of blocking on it and finishes it
        after the rank-local ``dt`` estimate; bitwise-identical either way.
    """

    def __init__(
        self,
        comm: Communicator,
        global_grid: Grid,
        q_global: np.ndarray,
        config: SolverConfig,
        decomp,
        version: int | Version = 5,
    ) -> None:
        if decomp.nparts != comm.size:
            raise ValueError(
                f"decomposition has {decomp.nparts} blocks but the "
                f"communicator has {comm.size} ranks"
            )
        decomp.reject_split_periodic(config.periodic_x, config.periodic_r)
        depth = halo_depth(config)
        decomp.reject_thin_blocks(depth, describe_depth(config))
        self.comm = comm
        self.decomp = decomp
        self.topo = topo = decomp.topology(comm.rank)
        # The serial boundary treatments, on the sides this block owns.  The
        # outflow helper's window reaches three lines of the pre-step strip,
        # whose radial ghosts are fresh to depth H, so it needs no exchange.
        self._owns_inflow = topo.left is None
        self._owns_outflow = topo.right is None
        self._owns_far_field = topo.upper is None
        if isinstance(version, int):
            version = version_by_number(version)
        self.version = version
        self.global_grid = global_grid
        xsl, rsl = decomp.local_block(comm.rank, depth)
        local_state = FlowState(
            decomp.local_grid(global_grid, comm.rank, depth),
            q_global[:, xsl, rsl].copy(),
            config.gamma,
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
        self.plan = ExchangePlan(
            comm, self.topo, version, self.state.q.shape, depth
        )
        self._pending = None  # a posted refresh, between post and finish
        # Attribute this solver's spans to its rank (also bound as the
        # thread default so MacCormack-phase spans inherit it under MPI,
        # where no VirtualCluster worker does the binding).
        self._trace_rank = comm.rank
        bind_rank(comm.rank)
        # Baselines for per-step comm deltas in the streamed records.
        self._stream_comm_prev = (0.0, 0.0, 0, 0)

    @property
    def owned(self) -> np.ndarray:
        """The rank's own cells: the extended state without its ghosts."""
        return self.state.q[self.plan.owned]

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

    # -- the halo, then the serial step -----------------------------------------
    def _begin_step(self, stage) -> None:  # type: ignore[override]
        with stage("halo"):
            # Version 6 posts the receive only on a step that has something
            # to run meanwhile: the rank-local dt estimate.
            self._pending = self.plan.refresh(
                self.state.q, self.nstep,
                post=self.version.overlap_communication and self._dt_is_due(),
            )

    def current_dt(self) -> float:  # type: ignore[override]
        """The serial rule over the owned cells, min-reduced.  A posted
        (Version 6) refresh is finished between the rank-local estimate —
        which reads no ghost line — and the all-reduce."""
        cfg = self.config
        due = self._dt_is_due()
        if due:
            local = self._stable_dt(self.owned)
        pending, self._pending = self._pending, None
        if pending is not None:
            pending.finish()
        if due:
            self._dt_cached = self.comm.allreduce_min(
                local, tag=f"{self.nstep}:dt"
            )
        return cfg.dt if cfg.dt is not None else self._dt_cached

    # -- gathering ------------------------------------------------------------
    def gather_state(self) -> FlowState | None:
        """Assemble the global state on rank 0 (``None`` elsewhere)."""
        parts = self.comm.gather_arrays(self.owned, tag=f"{self.nstep}:gather")
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
        parts = self.comm.gather_arrays(self.owned, tag=f"{self.nstep}:ckpt")
        if parts is None:
            return None
        return self.nstep, self.t, self.decomp.assemble(parts)
