"""High-level facade: run the decomposed jet solver over a message-passing
cluster.

:class:`ParallelJetSolver` takes the same inputs as the serial solver plus a
processor count and a paper code version, executes the SPMD program for real
(actual message passing: one thread per rank on the virtual cluster, one OS
process per rank with ``substrate="process"``), and returns the gathered
global state together with per-rank communication statistics — the measured
source for the paper's Table 1.

With ``faults=`` (a :class:`~repro.faults.FaultPlan` or preset name) every
rank's communicator is wrapped in a
:class:`~repro.faults.FaultyComm`, injecting the plan's seeded faults and
recovering the recoverable ones; ``checkpoint_every=`` additionally gathers
periodic snapshots so a :class:`~repro.msglib.virtual.RankFailure` (e.g. an
injected crash) restarts from the last checkpoint instead of aborting —
up to ``max_restarts`` times, after which the structured failure (annotated
with ``last_good_step``) propagates to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..grid import Grid
from ..msglib.api import CommStats
from ..msglib.virtual import RankFailure, VirtualCluster
from ..numerics.solver import SolverConfig
from ..obs import Trace, Tracer, current, use
from ..physics.state import FlowState
from .checkpoint import CheckpointStore, Snapshot
from .decomposition import CartesianDecomposition
from .halo import describe_depth, halo_depth
from .spmd import BlockDistributedSolver


def interior_stats(per_rank_stats: list[CommStats]) -> CommStats:
    """Stats of a middle rank — the paper's 'per processor' numbers.

    Interior ranks have two neighbours; edge ranks communicate less.  With
    fewer than three ranks *every* rank is an edge rank and the paper's
    per-processor figure is ill-defined, so this raises instead of silently
    returning an edge rank's (understated) numbers.
    """
    n = len(per_rank_stats)
    if n < 3:
        raise ValueError(
            f"no interior rank exists for nprocs={n}: with fewer than 3 "
            "ranks every rank touches a physical boundary and communicates "
            "with at most one neighbour, so the paper's per-processor "
            "(two-neighbour) numbers are ill-defined.  Inspect "
            "per_rank_stats directly or run with nprocs >= 3."
        )
    return per_rank_stats[n // 2]


@dataclass
class ParallelRunResult:
    """Outcome of a distributed run."""

    state: FlowState
    """Gathered global state after the run."""
    per_rank_stats: list[CommStats]
    """Communication statistics of each rank."""
    nsteps: int
    t: float
    """Final simulation time."""
    per_rank_wall: list[float] = field(default_factory=list)
    """Wall seconds each rank spent inside ``solver.step``."""
    trace: Trace | None = None
    """Span/counter records when the run was traced (else ``None``)."""
    restarts: int = 0
    """Checkpoint restarts the run needed to complete (0 = clean run)."""
    fault_stats: list | None = None
    """Per-rank :class:`~repro.faults.FaultStats` when faults were active
    (from the final, successful attempt), else ``None``."""

    @property
    def interior_rank_stats(self) -> CommStats:
        """Stats of a middle rank (see :func:`interior_stats`; raises
        ``ValueError`` for ``nprocs < 3`` where no interior rank exists)."""
        return interior_stats(self.per_rank_stats)


class ParallelJetSolver:
    """Distributed counterpart of the serial solvers.

    Parameters
    ----------
    state:
        Initial global :class:`~repro.physics.state.FlowState`.
    config:
        Solver configuration (identical to the serial one).
    nranks:
        Number of processors (axial blocks).
    version:
        Paper code version: 5 (grouped messages), 6 (overlapped in the
        simulator; here Version 5's blocking refresh), or 7 (flux columns
        one at a time).
    decomposition:
        ``"axial"`` (the paper's choice), ``"radial"`` (its Section-8
        future-work variant), or ``"2d"`` (a Cartesian ``px x pr`` grid of
        blocks; pass ``px``/``pr`` with ``px * pr == nranks``).
    timeout:
        Per-receive deadlock timeout in seconds.
    substrate:
        ``"virtual"`` (default — one thread per rank, the correctness
        substrate; compiled kernels release the GIL and step concurrently)
        or ``"process"`` (one OS process per rank over shared memory —
        real multi-core execution; see :mod:`repro.msglib.process`).
        Results are bitwise-identical across substrates.
    faults:
        ``None`` (default), a preset name (``"lossy-ethernet"``, ...), or a
        :class:`~repro.faults.FaultPlan`: wraps every rank's communicator
        in a fault-injecting, self-healing :class:`~repro.faults.FaultyComm`.
    checkpoint_every:
        Steps between gathered snapshots (0 disables checkpointing).  For
        bitwise-exact resume keep it a multiple of
        ``config.dt_recompute_every`` (or fix ``dt``).
    max_restarts:
        Checkpoint restarts allowed after a
        :class:`~repro.msglib.virtual.RankFailure` before it propagates.
    """

    def __init__(
        self,
        state: FlowState,
        config: SolverConfig | None = None,
        nranks: int = 2,
        version: int = 5,
        decomposition: str = "axial",
        px: int | None = None,
        pr: int | None = None,
        timeout: float = 120.0,
        substrate: str = "virtual",
        faults=None,
        checkpoint_every: int = 0,
        max_restarts: int = 2,
    ) -> None:
        from ..faults import resolve_fault_plan
        self.global_grid: Grid = state.grid
        self.q0 = state.q.copy()
        self.config = config or SolverConfig()
        self.nranks = nranks
        self.version = version
        # Built (and checked) here, in the caller: a block too thin for the
        # stencil or the halo, or a split periodic axis, is a plain
        # ValueError before any rank thread or process starts.
        self.decomp = CartesianDecomposition.named(
            decomposition, state.grid.nx, state.grid.nr, nranks, px, pr
        )
        self.decomp.reject_split_periodic(
            self.config.periodic_x, self.config.periodic_r
        )
        self.decomp.reject_thin_blocks(
            halo_depth(self.config), describe_depth(self.config)
        )
        self.timeout = timeout
        self.substrate = substrate
        self.faults = resolve_fault_plan(faults)
        self.checkpoint_every = checkpoint_every
        self.max_restarts = max_restarts

    def _make_solver(self, comm, q_global: np.ndarray):
        """Build the per-rank solver from a (possibly restored) global q."""
        return BlockDistributedSolver(
            comm, self.global_grid, q_global, self.config, self.decomp,
            version=self.version,
        )

    def _attempt(
        self,
        steps: int,
        start: Snapshot,
        salt: int,
        store: CheckpointStore | None,
    ) -> list:
        """One cluster execution from snapshot ``start`` (may raise
        :class:`~repro.msglib.virtual.RankFailure`)."""
        from contextlib import nullcontext

        from ..faults import FaultyComm

        plan = self.faults
        checkpoint_every = self.checkpoint_every
        if self.substrate == "process":
            from ..msglib.process import ProcessCluster

            cluster = ProcessCluster(self.nranks, timeout=self.timeout)
            scope = cluster
            if store is not None:
                # The store stays in the parent so snapshots survive any
                # worker's crash; workers ship them through the cluster.
                cluster.snapshot_sink = store.save
            save = cluster.submit_snapshot if store is not None else None
        else:
            cluster = VirtualCluster(self.nranks, timeout=self.timeout)
            scope = nullcontext()
            save = store.save if store is not None else None

        def program(comm):
            fcomm = (
                FaultyComm(comm, plan, salt=salt)
                if plan is not None and plan.enabled
                else comm
            )
            try:
                solver = self._make_solver(fcomm, start.q)
                if start.step:
                    solver.restore(start.step, start.t)
                for _ in range(steps - start.step):
                    solver.step()
                    if (
                        checkpoint_every
                        and solver.nstep % checkpoint_every == 0
                        and solver.nstep < steps
                    ):
                        snap = solver.checkpoint()
                        if snap is not None and save is not None:
                            save(*snap)
                        current().mark(
                            "checkpoint", comm.rank, step=solver.nstep
                        )
                gathered = solver.gather_state()
                return (
                    gathered,
                    solver.t,
                    solver.nstep,
                    solver.wall_time,
                    fcomm.fault_stats if fcomm is not comm else None,
                )
            finally:
                if fcomm is not comm:
                    fcomm.drain()

        with scope:
            results = cluster.run(program)
            self._last_stats = (
                list(cluster.last_stats)
                if self.substrate == "process"
                else [c.stats for c in cluster.comms]
            )
        return results

    def run(self, steps: int, tracer: Tracer | None = None) -> ParallelRunResult:
        """Execute ``steps`` time steps across all ranks and gather.

        ``tracer`` optionally records per-rank spans (solver stages, sends,
        receives, halo exchanges) for the duration of the run; it is
        installed (``obs.use(tracer=...)``) while the cluster executes; the
        other sinks, and the tracer when none is given, are the caller's.

        With a fault plan active a :class:`~repro.msglib.virtual.RankFailure`
        triggers a restart from the newest checkpoint (fresh cluster,
        ``salt`` = attempt number) up to ``max_restarts`` times; the failure
        propagates — annotated with ``last_good_step`` — once restarts are
        exhausted or no faults were requested.
        """
        store = CheckpointStore(keep=2) if self.checkpoint_every else None
        start = Snapshot(step=0, t=0.0, q=self.q0)
        attempt = 0

        def attempts():
            nonlocal attempt, start
            while True:
                try:
                    return self._attempt(steps, start, attempt, store)
                except RankFailure as failure:
                    latest = store.latest if store is not None else None
                    failure.last_good_step = (
                        latest.step if latest is not None else 0
                    )
                    # Post-mortem: the last recorded events of every rank,
                    # forked or not — all of them write the one ring.
                    events = current().post_mortem()
                    if events is not None:
                        failure.flight = events
                    if self.faults is None or attempt >= self.max_restarts:
                        raise
                    attempt += 1
                    current().instant(
                        "recovery.restart",
                        cat="fault",
                        attempt=attempt,
                        failed_rank=failure.rank,
                        resume_step=failure.last_good_step,
                    )
                    if latest is not None:
                        start = latest

        with use(tracer=tracer) if tracer is not None else use():
            results = attempts()
        state, t, nsteps, _, _ = results[0]
        fault_stats = [r[4] for r in results]
        return ParallelRunResult(
            state=state,
            per_rank_stats=self._last_stats,
            nsteps=nsteps,
            t=t,
            per_rank_wall=[r[3] for r in results],
            trace=tracer.trace if tracer is not None else None,
            restarts=attempt,
            fault_stats=fault_stats if any(
                s is not None for s in fault_stats
            ) else None,
        )


def serial_reference(
    state: FlowState, config: SolverConfig, steps: int
) -> FlowState:
    """Serial run from a copy of ``state``, for equivalence checks.

    This is the low-level helper behind the serial route of
    :func:`repro.api.run` (which is the preferred entry point)."""
    from ..numerics.solver import CompressibleSolver

    solver = CompressibleSolver(
        FlowState(state.grid, state.q.copy(), config.gamma), config
    )
    for _ in range(steps):
        solver.step()
    return solver.state
