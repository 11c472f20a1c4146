"""Discrete-event performance simulation of the SPMD application.

The pipeline:

1. :mod:`repro.simulate.workload` describes the application's per-step
   computation and communication (Table 1 characteristics), either taken
   from the paper's measured numbers or derived from this package's own
   instrumented distributed solver.
2. :mod:`repro.simulate.costmodel` converts compute segments to seconds on
   a platform's CPU model for a given code version.
3. :mod:`repro.simulate.program` builds the per-rank event programs (the
   Version 5/6/7 communication shapes) as one flat plan per run.
4. :mod:`repro.simulate.machine` runs them over a platform's network model
   with a message-library cost model in :mod:`repro.simulate.native`'s C
   plan engine (the :mod:`repro.simulate.engine` event engine where no C
   toolchain is), producing per-rank busy / non-overlapped-communication
   timelines (:mod:`repro.simulate.timeline`) — the paper's execution-time
   split.
5. :mod:`repro.simulate.sharedmem` models the Cray Y-MP (loop-level
   parallelism over the vector CPU model; no message passing).
"""

from .engine import Engine, Resource, Delay, Acquire, Release
from .workload import Application, NAVIER_STOKES, EULER, Workload
from .costmodel import CostModel
from .machine import SimulatedMachine, RunResult
from .sharedmem import SharedMemoryMachine
from .analytic import AnalyticEstimate, analytic_execution_time, analytic_saturation_procs

__all__ = [
    "Engine",
    "Resource",
    "Delay",
    "Acquire",
    "Release",
    "Application",
    "NAVIER_STOKES",
    "EULER",
    "Workload",
    "CostModel",
    "SimulatedMachine",
    "RunResult",
    "SharedMemoryMachine",
    "AnalyticEstimate",
    "analytic_execution_time",
    "analytic_saturation_procs",
]
