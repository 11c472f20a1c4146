"""The unified run facade: one entry point for every execution substrate.

``run(scenario, ...)`` routes a :class:`~repro.scenarios.Scenario` (or a
registered scenario name) to

* the **serial solver** (``nprocs=1``, the default),
* the **distributed solver** (``nprocs > 1`` — real SPMD execution, real
  message passing: one thread per rank on the virtual cluster, or one OS
  process per rank with ``substrate="process"``), or
* the **simulated platform** (``platform=...`` — the discrete-event model
  of one of the paper's 1995 machines),

and returns a single :class:`RunResult` shape for all three, optionally
carrying a full :class:`~repro.obs.Trace` of the run.

Examples
--------
Serial jet run (never mutates the input scenario)::

    from repro.api import run
    res = run("jet", steps=400, nx=96, nr=40)
    print(res.state.axial_momentum.max(), res.timings.ms_per_step)

Distributed, traced, exported for Perfetto::

    res = run("jet", steps=50, nprocs=4, trace="jet.trace.json")
    print(res.interior_rank_stats.sends, len(res.trace.spans))

Simulated 1995 platform::

    res = run("jet", platform="Cray T3D", nprocs=16)
    print(res.sim.execution_time, res.sim.comm_time)
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass, replace as _dc_replace

from .config import default_ledger_path
from .msglib.api import CommStats
from .obs import (
    FlightRing,
    MetricsRegistry,
    PerfReport,
    Trace,
    TraceContext,
    Tracer,
    append_ledger,
    build_perf_report,
    current,
    use,
    write_chrome_trace,
    write_flight_jsonl,
)
from .obs.flight import DEFAULT_CAPACITY, DEFAULT_SLOT_BYTES
from .obs.stream import STEP_DEPTH, STEP_SLOT_BYTES, read_steps
from .physics.state import FlowState
from .request import (
    ExecutionConfig,
    ObservabilityConfig,
    ResilienceConfig,
    RunRequest,
)
from .scenarios import Scenario

__all__ = [
    "run",
    "run_request",
    "RunRequest",
    "ExecutionConfig",
    "ResilienceConfig",
    "ObservabilityConfig",
    "RunResult",
    "RunTimings",
    "DEFAULT_LEDGER",
]


def __getattr__(name: str):
    # DEFAULT_LEDGER is resolved at access time against the anchored data
    # directory (env REPRO_DATA_DIR, else the repo checkout) so service
    # workers and CLI runs from any cwd append to the same ledger.
    if name == "DEFAULT_LEDGER":
        return str(default_ledger_path())
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class RunTimings:
    """Wall-clock accounting of one run (this package's own clock, not the
    simulated platform's — see ``RunResult.sim`` for the latter)."""

    wall_seconds: float
    steps: int
    per_rank_wall: tuple[float, ...] | None = None
    """Per-rank seconds inside ``solver.step`` (distributed runs only)."""

    @property
    def ms_per_step(self) -> float:
        return 1e3 * self.wall_seconds / max(self.steps, 1)


@dataclass
class RunResult:
    """Uniform outcome of :func:`run` across all three substrates.

    Fields that do not apply to a route are ``None`` (e.g. ``state`` for a
    simulated platform run, ``sim`` for a real solver run).
    """

    scenario: str
    mode: str
    """``"serial"``, ``"parallel"`` or ``"simulated"``."""
    nprocs: int
    version: int | None
    steps: int
    t: float | None
    """Final simulation time (``None`` for simulated platform runs)."""
    state: FlowState | None
    per_rank_stats: list[CommStats] | None
    timings: RunTimings
    trace: Trace | None = None
    trace_path: str | None = None
    """Where the Chrome-trace JSON was written (when requested)."""
    sim: object | None = None
    """The :class:`repro.simulate.machine.RunResult` for platform runs."""
    restarts: int = 0
    """Checkpoint restarts a faulted distributed run needed (0 = clean)."""
    fault_stats: list | None = None
    """Per-rank :class:`~repro.faults.FaultStats` when faults were active
    on the distributed route, else ``None``."""
    perf: PerfReport | None = None
    """Performance report (``run(..., metrics=True)``), else ``None``."""
    metrics: MetricsRegistry | None = None
    """The populated registry behind ``perf`` for programmatic access."""
    substrate: str | None = None
    """Parallel-route execution substrate (``"virtual"`` — one thread per
    rank — or ``"process"`` — one OS process per rank over shared
    memory); ``None`` for serial and simulated runs."""
    request: RunRequest | None = None
    """The typed request this result answered (``run_request`` sets it;
    its :meth:`~repro.request.RunRequest.fingerprint` is the cache key)."""
    flight: dict | None = None
    """``rank -> last flight-recorder events`` when ``flight=`` was on."""
    stream: list | None = None
    """The ``repro.stream/1`` records ordered by ``(step, rank)``, when
    the run made its own step ring (``stream=True`` or a depth); a
    caller's ring keeps them for the caller."""

    @property
    def interior_rank_stats(self) -> CommStats:
        """Middle-rank communication stats (paper's per-processor numbers).

        Raises ``ValueError`` when no interior rank exists (``nprocs < 3``)
        or the run produced no per-rank statistics (serial / simulated)."""
        from .parallel.runner import interior_stats

        if self.per_rank_stats is None:
            raise ValueError(
                f"no per-rank statistics for a {self.mode} run; "
                "communication stats exist only for nprocs > 1 real runs"
            )
        return interior_stats(self.per_rank_stats)

    @property
    def total_stats(self) -> CommStats:
        """All-rank aggregate communication statistics."""
        agg = CommStats()
        for st in self.per_rank_stats or []:
            agg = agg.merged_with(st)
        return agg

    def summary(self) -> str:
        if self.mode == "simulated":
            return self.sim.summary()
        head = (
            f"{self.scenario:12s} {self.mode:8s} p={self.nprocs:2d} "
            f"steps={self.steps:5d} t={self.t:.3f} "
            f"{self.timings.ms_per_step:6.1f} ms/step"
        )
        if self.per_rank_stats:
            agg = self.total_stats
            head += f"  msgs={agg.sends} vol={agg.bytes_sent / 1e6:.2f}MB"
        return head


def _coerce_tracer(trace) -> tuple[Tracer | None, str | None]:
    """``trace`` may be falsy, True, a Tracer, or an export path."""
    if trace is None or trace is False:
        return None, None
    if isinstance(trace, Tracer):
        return trace, None
    if trace is True:
        return Tracer(), None
    return Tracer(), os.fspath(trace)


def _coerce_metrics(metrics, ledger) -> MetricsRegistry | None:
    """``metrics`` may be falsy, True, or a registry; the ledger implies
    metrics (the report needs the registry to exist)."""
    if isinstance(metrics, MetricsRegistry):
        return metrics
    if metrics or ledger:
        return MetricsRegistry()
    return None


def _coerce_ring(
    value, nranks: int, capacity: int = DEFAULT_CAPACITY,
    slot_bytes: int = DEFAULT_SLOT_BYTES,
):
    """``value`` may be falsy, True, a depth, or a live ring.  Anything but
    a live ring gets a temp ring of ``nranks`` regions, which the run
    closes (and so deletes) whether it returns or raises."""
    if not value:
        return None
    if hasattr(value, "record"):
        return value
    if not isinstance(value, int):
        raise TypeError(f"expected True, a depth or a FlightRing, got {value!r}")
    if value is not True:
        capacity = value
    return FlightRing.create(nranks=nranks, capacity=capacity, slot_bytes=slot_bytes)


def run(scenario, **options) -> RunResult:
    """Run ``scenario`` on the selected substrate and return a
    :class:`RunResult`.

    Parameters
    ----------
    scenario:
        A :class:`~repro.scenarios.Scenario` or a registered name
        (``"jet"``, ``"jet-euler"``, ``"advection"``, ``"acoustic"``,
        ``"sod"``).  Extra keyword arguments are forwarded to the named
        scenario's constructor (``nx=...``, ``viscous=...``, ...).
        The input scenario is never mutated; the evolved state comes back
        in ``RunResult.state``.
    steps:
        Time steps to advance.  Required for real runs; for simulated
        platform runs it sets the *total* (scaled) step count and defaults
        to the paper's 5000.
    nprocs:
        1 = serial solver; >1 = distributed solver over the virtual
        cluster (``platform=None``), or the simulated processor count.
    platform:
        A :class:`~repro.machines.platforms.Platform` or platform name
        (``"Cray T3D"``, ``"LACE/560+ALLNODE-S"``, ...) — selects the
        discrete-event simulation route.
    version:
        Paper code version (5 grouped / 6 overlapped / 7 de-burstified).
        The simulated route models Version 6's overlap; real ranks run
        it with Version 5's blocking halo refresh.
        Real distributed results are bitwise independent of it; it shapes
        message traffic and simulated cost.
    trace:
        ``True`` to record a :class:`~repro.obs.Trace`, a
        :class:`~repro.obs.Tracer` to record into, or a path to also
        export Chrome-trace JSON (openable in Perfetto).
    backend:
        Kernel backend name (``"baseline"``, ``"fused"`` or ``"compiled"``; see
        :mod:`repro.numerics.kernels`).  ``None`` keeps the scenario's
        configured backend, which itself defaults to ``"baseline"``.
        Backends are bitwise-identical — this only selects how the
        hot-path kernels are evaluated.
    decomposition, px, pr, timeout:
        Forwarded to the distributed solver (``nprocs > 1`` route).
    substrate:
        How distributed ranks execute (``nprocs > 1``, ``platform=None``):
        ``"virtual"`` (default) runs one thread per rank — real message
        passing, the correctness substrate; the compiled kernels release
        the GIL (``ctypes.CDLL``), so its ranks step them concurrently;
        ``"process"`` runs one OS process per rank over POSIX shared
        memory — true multi-core execution with measured wall-clock
        speedup (see :mod:`repro.msglib.process`).  Both produce
        bitwise-identical final states.
    steps_window:
        Simulated steps actually executed by the DES before scaling
        (simulated route only).
    faults:
        ``None`` (default), a preset name (``"lossy-ethernet"``,
        ``"jittery-now"``, ``"drop-storm"``, ``"crash-rank1"``,
        ``"lossy-crash"``) or a :class:`~repro.faults.FaultPlan`.  On the
        distributed route this wraps every rank's communicator in a
        fault-injecting :class:`~repro.faults.FaultyComm`; on the simulated
        route it degrades the DES network deterministically.  Not valid for
        serial runs (there is no network to break).
    fault_seed:
        Re-seeds the plan (``plan.with_seed``); every injection decision is
        a pure function of the seed, so a printed seed reproduces a run.
    checkpoint_every:
        Distributed route: gather a restart snapshot every N steps so an
        injected crash resumes instead of failing (0 = off).
    max_restarts:
        Distributed route: checkpoint restarts allowed before the
        structured :class:`~repro.msglib.RankFailure` propagates.
    metrics:
        ``True`` (or a :class:`~repro.obs.MetricsRegistry` to record into)
        enables continuous measurement: stage timings, communication and
        fault counters, and a derived :class:`~repro.obs.PerfReport` in
        ``RunResult.perf`` (per-stage MFLOPS, comp:comm ratio, per-rank
        split).  Works on all three substrates.
    ledger:
        A path (or ``True`` for the anchored default ledger — see
        :func:`repro.config.default_ledger_path`) to append the
        :class:`~repro.obs.PerfReport` to as one JSON line.  Implies
        ``metrics``.
    stream:
        ``True`` (or a depth per rank, or a live
        :class:`~repro.obs.FlightRing`) writes one compact
        ``repro.stream/1`` progress record per solver step per rank (step,
        t, dt, ms, comm split) into a step ring — see
        :mod:`repro.obs.stream`.  A ring the run makes itself keeps the
        last :data:`~repro.obs.stream.STEP_DEPTH` records of each rank,
        returns them in ``RunResult.stream`` and is gone when the run
        returns or raises.
    flight:
        ``True`` (or a capacity / flush path / live
        :class:`~repro.obs.FlightRing`) keeps a bounded flight-recorder
        ring of each rank's last events (sends, recvs, collectives,
        checkpoint marks) in ``RunResult.flight`` — see
        :mod:`repro.obs.flight`.  A ring the run makes itself is a temp
        file, gone when the run returns or raises.

    Notes
    -----
    A sink named here (``trace``, ``metrics``, ``stream``, ``flight``) is
    in charge for the run; one left off stays whatever the caller's
    enclosing ``repro.obs.use(...)`` made it, on every route.

    ``run(scenario, **options)`` *is*
    ``run_request(RunRequest.from_run_args(scenario, **options))``: every
    option above but ``scenario`` and ``steps`` is a field of one of the
    three config dataclasses in :mod:`repro.request` (its default is
    declared there and nowhere else), and a keyword no config declares is
    a scenario constructor override.  Anything that serializes, caches, or
    ships runs (see :mod:`repro.service`) builds ``RunRequest`` objects.
    """
    return run_request(RunRequest.from_run_args(scenario, **options))


def run_request(
    req: RunRequest, *, context: TraceContext | None = None
) -> RunResult:
    """Execute a typed :class:`~repro.request.RunRequest` — the canonical
    entry point behind :func:`run` and the unit of work the run service
    (:mod:`repro.service`) ships to its worker processes.

    The resulting :class:`RunResult` carries the request back
    (``result.request``), and any :class:`~repro.obs.PerfReport` built for
    it is stamped with ``req.fingerprint()`` — the request-derived cache
    key, not a post-hoc hash of run outputs.

    ``context`` joins this run to a distributed trace: the trace id is
    stamped into the tracer (and inherited by forked rank processes), so
    a service-executed run's spans line up under the submitting client's.
    """
    ex, rz, ob = req.execution, req.resilience, req.observability
    if ex.substrate not in ("virtual", "process"):
        raise ValueError(
            f"substrate must be 'virtual' or 'process', got {ex.substrate!r}"
        )
    if ex.substrate == "process" and ex.platform is not None:
        raise ValueError(
            "substrate='process' applies to real distributed runs; "
            "platform= selects the simulated route (drop one of the two)"
        )
    sc = req.resolve_scenario()
    tracer, trace_path = _coerce_tracer(ob.trace)
    if context is not None and tracer is not None:
        tracer.adopt_context(context)
    reg = _coerce_metrics(ob.metrics, ob.ledger)
    from .faults import resolve_fault_plan

    plan = resolve_fault_plan(rz.faults, seed=rz.fault_seed)
    # A path asks for the post-mortem to be flushed there.
    path_given = not isinstance(ob.flight, int) and not hasattr(ob.flight, "record")
    flight_path = os.fspath(ob.flight) if ob.flight and path_given else None
    flight = steps = None
    try:
        flight = _coerce_ring(True if flight_path else ob.flight, ex.nprocs)
        steps = _coerce_ring(ob.stream, ex.nprocs, STEP_DEPTH, STEP_SLOT_BYTES)
        named = {"tracer": tracer, "metrics": reg, "stream": steps, "flight": flight}
        # Only what the request named: the rest is inherited from the caller.
        with use(**{slot: sink for slot, sink in named.items() if sink is not None}):
            if ex.platform is not None:
                result = _run_simulated(sc, req, plan)
            elif ex.nprocs == 1:
                if plan is not None:
                    raise ValueError(
                        "faults= requires a network to break: use nprocs > 1 "
                        "(virtual cluster) or platform=... (simulated machine)"
                    )
                result = _run_serial(sc, req)
            else:
                result = _run_parallel(sc, req, plan)
        if flight is not None:
            result.flight = flight.events_by_rank()
        if steps is not None and steps is not ob.stream:
            result.stream = read_steps(steps)
    finally:
        for ring, given in ((flight, ob.flight), (steps, ob.stream)):
            if ring is not None and ring is not given:
                ring.close()
    result.request = req
    if tracer is not None:
        result.trace = tracer.trace
        if trace_path is not None:
            write_chrome_trace(tracer.trace, trace_path)
            result.trace_path = trace_path
    if flight_path is not None:
        write_flight_jsonl(result.flight, flight_path)
    if reg is not None:
        backend_name = None
        if result.mode != "simulated":
            from .numerics.kernels import resolve_backend

            backend_name = resolve_backend(
                ex.backend or sc.config.backend
            ).name
        result.metrics = reg
        result.perf = build_perf_report(
            result,
            reg,
            backend=backend_name,
            grid=(sc.grid.nx, sc.grid.nr),
            viscous=sc.config.viscous,
            fingerprint=req.fingerprint(),
        )
        if ob.ledger:
            path = (
                str(default_ledger_path())
                if ob.ledger is True
                else os.fspath(ob.ledger)
            )
            append_ledger(result.perf, path)
    return result


def _require_steps(steps: int | None) -> int:
    if steps is None:
        raise TypeError("steps is required for real solver runs: run(..., steps=N)")
    return steps


def _backend_config(config, backend: str | None):
    """The scenario's solver config, with the backend overridden if asked.

    ``replace`` keeps the input scenario immutable (the facade's contract).
    """
    if backend is None:
        return config
    return _dc_replace(config, backend=backend)


# The three routes take the request (plus what ``run_request`` resolved from
# it) and read options off its configs; none is re-listed as a parameter.
# They run inside the sinks ``run_request`` installed and name none of them.


def _run_serial(sc: Scenario, req: RunRequest) -> RunResult:
    steps = _require_steps(req.steps)
    config = _backend_config(sc.config, req.execution.backend)
    solver = sc.solver_cls(
        FlowState(sc.grid, sc.state.q.copy(), config.gamma),
        config,
    )
    t0 = _time.perf_counter()
    for _ in range(steps):
        solver.step()
    wall = _time.perf_counter() - t0
    return RunResult(
        scenario=sc.name or "scenario",
        mode="serial",
        nprocs=1,
        version=None,
        steps=solver.nstep,
        t=solver.t,
        state=solver.state,
        per_rank_stats=None,
        timings=RunTimings(wall_seconds=wall, steps=solver.nstep),
    )


def _run_parallel(sc: Scenario, req: RunRequest, plan) -> RunResult:
    from .parallel.runner import ParallelJetSolver

    ex, rz = req.execution, req.resilience
    steps = _require_steps(req.steps)
    # The one mapping from request fields to solver arguments.
    solver = ParallelJetSolver(
        sc.state,
        _backend_config(sc.config, ex.backend),
        nranks=ex.nprocs,
        version=ex.version,
        decomposition=ex.decomposition,
        px=ex.px,
        pr=ex.pr,
        timeout=ex.timeout,
        substrate=ex.substrate,
        # The resolved (re-seeded) plan, never the raw ``rz.faults``.
        faults=plan,
        checkpoint_every=rz.checkpoint_every,
        max_restarts=rz.max_restarts,
    )
    t0 = _time.perf_counter()
    res = solver.run(steps)
    wall = _time.perf_counter() - t0
    return RunResult(
        scenario=sc.name or "scenario",
        mode="parallel",
        nprocs=ex.nprocs,
        version=ex.version,
        steps=res.nsteps,
        t=res.t,
        state=res.state,
        per_rank_stats=res.per_rank_stats,
        timings=RunTimings(
            wall_seconds=wall,
            steps=res.nsteps,
            per_rank_wall=tuple(res.per_rank_wall),
        ),
        restarts=res.restarts,
        fault_stats=res.fault_stats,
        substrate=ex.substrate,
    )


def _run_simulated(sc: Scenario, req: RunRequest, plan) -> RunResult:
    from .simulate.machine import SimulatedMachine
    from .simulate.sharedmem import SharedMemoryMachine
    from .simulate.workload import EULER, NAVIER_STOKES

    ex = req.execution
    platform = req.resolve_platform()
    app = NAVIER_STOKES if sc.config.viscous else EULER
    # The one hand-off past the verbs: the simulator stamps its records
    # with the engine's clock, so it is given the tracer itself.
    tracer = current().tracer
    t0 = _time.perf_counter()
    if platform.cpu is None:
        # Shared-memory vector machine (the Y-MP): analytic, no DES trace.
        if plan is not None:
            raise ValueError(
                f"faults= is not supported on {platform.name}: the "
                "shared-memory model has no network to degrade"
            )
        sim = SharedMemoryMachine(platform, ex.nprocs).run(
            app, version=ex.version, total_steps=req.steps
        )
        if tracer is not None:  # no segments to put on a timeline: the meta
            tracer.trace.meta.update(
                platform=platform.name, app=app.name, nprocs=ex.nprocs
            )
    else:
        sim = SimulatedMachine(
            platform, ex.nprocs, version=ex.version, faults=plan
        ).run(
            app,
            steps_window=ex.steps_window,
            total_steps=req.steps,
            tracer=tracer,
        )
    wall = _time.perf_counter() - t0
    return RunResult(
        scenario=sc.name or "scenario",
        mode="simulated",
        nprocs=ex.nprocs,
        version=ex.version,
        steps=sim.total_steps,
        t=None,
        state=None,
        per_rank_stats=None,
        timings=RunTimings(wall_seconds=wall, steps=sim.total_steps),
        sim=sim,
    )
