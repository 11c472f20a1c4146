"""The simulated distributed-memory machine: platform + library + engine.

``SimulatedMachine(platform, nprocs).run(app)`` simulates a steady-state
window of time steps of the SPMD program over the platform's network with
its message-library cost model, then scales the per-rank timelines to the
full run length (the program is periodic per step, which the tests verify
against unscaled runs).  The result carries the paper's execution-time
split: processor busy time vs non-overlapped communication time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machines.platforms import Platform
from ..msglib.libmodel import LibraryModel
from ..obs import current, trace_from_timelines
from ..parallel.versions import Version, version_by_number
from .costmodel import CostModel
from .engine import Engine, Event, Resource
from .program import build_rank_program
from .timeline import RankContext, RankTimeline
from .workload import Application, Workload


@dataclass
class RunResult:
    """Scaled outcome of a simulated run."""

    platform: str
    app: str
    nprocs: int
    version: int
    steps_window: int
    total_steps: int
    timelines: list[RankTimeline]
    makespan_window: float

    @property
    def scale(self) -> float:
        return self.total_steps / self.steps_window

    @property
    def execution_time(self) -> float:
        """Scaled wall-clock seconds for the full run."""
        return self.makespan_window * self.scale

    @property
    def busy_time(self) -> float:
        """Scaled mean processor-busy time (compute + message software)."""
        n = len(self.timelines)
        return self.scale * sum(t.busy for t in self.timelines) / n

    @property
    def comm_time(self) -> float:
        """Scaled non-overlapped communication time: the additive remainder
        ``execution - busy`` (the paper's two-component split)."""
        return max(self.execution_time - self.busy_time, 0.0)

    @property
    def per_rank_busy(self) -> list[float]:
        """Scaled busy time of each rank (the paper's Figure 13)."""
        return [t.busy * self.scale for t in self.timelines]

    @property
    def per_rank_wait(self) -> list[float]:
        return [t.comm_wait * self.scale for t in self.timelines]

    @property
    def compute_time(self) -> float:
        n = len(self.timelines)
        return self.scale * sum(t.compute for t in self.timelines) / n

    @property
    def library_time(self) -> float:
        n = len(self.timelines)
        return self.scale * sum(t.library for t in self.timelines) / n

    def summary(self) -> str:
        return (
            f"{self.platform:24s} {self.app:13s} p={self.nprocs:2d} "
            f"V{self.version}: exec={self.execution_time:9.1f}s "
            f"busy={self.busy_time:9.1f}s comm={self.comm_time:8.1f}s"
        )


class SimulatedMachine:
    """A distributed-memory platform executing the SPMD workload."""

    def __init__(
        self,
        platform: Platform,
        nprocs: int,
        version: int | Version = 5,
        library: LibraryModel | None = None,
        node_speed_factors: list[float] | None = None,
        faults=None,
    ) -> None:
        """``node_speed_factors`` optionally scales each rank's compute
        speed (1.0 = the platform CPU; 1.7 = a 590-class node in a 560
        cluster), modelling heterogeneous clusters like the real mixed
        LACE — the SPMD program then waits on its slowest member.

        ``faults`` (a :class:`~repro.faults.FaultPlan` or preset name)
        degrades the simulated platform deterministically: the plan's
        wire-level faults become extra route occupancy per transfer
        (retransmissions + jitter) and its ``slow_ranks`` become per-node
        speed factors — the DES counterpart of wrapping the real cluster's
        communicators in a :class:`~repro.faults.FaultyComm`."""
        from ..faults import resolve_fault_plan

        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if platform.cpu is None:
            raise ValueError(
                f"{platform.name} has no scalar CPU model; use "
                "SharedMemoryMachine for the Y-MP"
            )
        if node_speed_factors is not None and len(node_speed_factors) != nprocs:
            raise ValueError("need one speed factor per rank")
        self.faults = resolve_fault_plan(faults)
        if self.faults is not None and self.faults.slow_ranks:
            # A slowdown factor f >= 1 is a speed factor 1/f.
            factors = (
                list(node_speed_factors)
                if node_speed_factors is not None
                else [1.0] * nprocs
            )
            for r, f in self.faults.slow_ranks:
                if 0 <= r < nprocs:
                    factors[r] /= max(float(f), 1.0)
            node_speed_factors = factors
        self.node_speed_factors = node_speed_factors
        self.platform = platform
        self.nprocs = nprocs
        self.version = (
            version_by_number(version) if isinstance(version, int) else version
        )
        library = library or platform.library
        if library.scale_with_cpu and platform.cpu.v5_target_mflops:
            # The library values are referenced to the RS6000/560 (16.0
            # sustained MFLOPS); faster nodes execute the same software
            # path proportionally faster.
            library = library.scaled(16.0 / platform.cpu.v5_target_mflops)
        self.library = library

    def run(
        self,
        app: Application | Workload,
        steps_window: int = 40,
        total_steps: int | None = None,
        trace: bool = False,
        tracer=None,
    ) -> RunResult:
        """Simulate ``steps_window`` steps and scale to the full run.

        ``trace=True`` records per-rank activity segments for the Gantt
        rendering (``repro.analysis.report.render_gantt``).  ``tracer``
        (a :class:`repro.obs.Tracer`) additionally records engine
        schedule/resume events and, after the run, the per-rank activity
        segments as spans — all keyed on the engine's deterministic clock,
        so the export is byte-stable across runs."""
        workload = app if isinstance(app, Workload) else Workload.paper(app)
        application = workload.app
        total = total_steps if total_steps is not None else application.steps
        p = self.nprocs
        if tracer is not None:
            trace = True

        cost = CostModel.of(self.platform.cpu, self.version)
        ws = workload.working_set_bytes(p)
        step_seconds = cost.compute_time(workload.flops_per_step_per_rank(p), ws)

        engine = Engine(tracer=tracer)
        network = self.platform.network(p)
        capacities = network.capacities()
        resources: dict[str, Resource] = {
            k: Resource(capacity=c, name=k) for k, c in capacities.items()
        }
        events: dict[tuple, Event] = {}

        def event_for(key: tuple) -> Event:
            ev = events.get(key)
            if ev is None:
                ev = Event(name=str(key))
                events[key] = ev
            return ev

        contexts = [RankContext(engine, r, trace=trace) for r in range(p)]

        def fault_note(src: int, dst: int, key: tuple, extra: float) -> None:
            if tracer is not None:
                tracer.instant(
                    "fault.sim_delay",
                    cat="fault",
                    rank=src,
                    ts=engine.now,
                    peer=dst,
                    step=key[0],
                    seconds=round(extra, 9),
                )

        for r in range(p):
            factor = (
                self.node_speed_factors[r]
                if self.node_speed_factors is not None
                else 1.0
            )
            engine.add_process(
                build_rank_program(
                    contexts[r],
                    r,
                    p,
                    workload,
                    self.version,
                    self.library,
                    network,
                    resources,
                    event_for,
                    steps_window,
                    step_seconds / factor,
                    faults=self.faults,
                    fault_note=fault_note,
                ),
                name=f"rank{r}",
            )
        makespan = engine.run()
        if tracer is not None:
            trace_from_timelines(
                [c.timeline for c in contexts],
                tracer=tracer,
                meta={
                    "platform": self.platform.name,
                    "app": application.name,
                    "nprocs": p,
                    "version": self.version.number,
                    "steps_window": steps_window,
                },
            )
        result = RunResult(
            platform=f"{self.platform.name}",
            app=application.name,
            nprocs=p,
            version=self.version.number,
            steps_window=steps_window,
            total_steps=total,
            timelines=[c.timeline for c in contexts],
            makespan_window=makespan,
        )
        # Scaled per-rank timeline split plus the modelled flop count, so
        # the performance report can derive MFLOPS and comp:comm for
        # simulated runs exactly as it does for measured ones.
        obs = current()
        scale = result.scale
        flops = workload.flops_per_step_per_rank(p) * total
        for tl in result.timelines:
            r = tl.rank
            obs.count("sim.compute_seconds", tl.compute * scale, rank=r)
            obs.count("sim.library_seconds", tl.library * scale, rank=r)
            obs.count("sim.wait_seconds", tl.comm_wait * scale, rank=r)
            obs.count("sim.busy_seconds", tl.busy * scale, rank=r)
            obs.count("sim.flops", flops, rank=r)
            obs.count("sim.steps", float(total), rank=r)
        obs.count("sim.engine_events", float(engine.steps), rank=0)
        return result
