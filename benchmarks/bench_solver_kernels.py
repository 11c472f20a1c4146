"""Raw solver throughput: wall time per time step of this implementation.

Not a paper artifact — this measures the *reproduction's own* kernels
(vectorized numpy) so regressions in the numerics are caught, and gives the
basis for the "full Figure 1 run takes minutes, not Y-MP hours" claim in
the README.

``test_backend_ladder`` compares the kernel backends (the Python analogue
of the paper's single-processor Versions 1-5 ladder) on the paper's
250x100 grid and records the per-backend step times in the git-ignored
``benchmarks/output/GATES_kernels.json``.
"""

import json
import os
import time

import pytest

from repro import jet_scenario
from repro.numerics.kernels import available_backends, get_backend

from conftest import OUTPUT_DIR


def _solver_for(backend: str, viscous: bool = True, nx: int = 250, nr: int = 100):
    sc = jet_scenario(nx=nx, nr=nr, viscous=viscous)
    sc.solver.config.backend = backend
    return type(sc.solver)(sc.state, sc.solver.config)


@pytest.mark.parametrize("viscous", [True, False], ids=["navier-stokes", "euler"])
def test_step_throughput(benchmark, viscous):
    sc = jet_scenario(nx=125, nr=50, viscous=viscous)
    sc.solver.run(2)  # warm the pipeline (dt cache, allocations)

    benchmark(sc.solver.step)


def test_paper_grid_step(benchmark):
    """One step at the paper's full 250x100 resolution."""
    sc = jet_scenario(nx=250, nr=100, viscous=True)
    sc.solver.run(2)
    benchmark(sc.solver.step)


def test_backend_ladder():
    """Per-backend step time at 250x100, written to GATES_kernels.json.

    The fused backend must deliver at least the 1.5x speedup the ISSUE-2
    acceptance criterion demands (measured: ~2x) — the same shape of gain
    the paper's Versions 2-4 restructuring bought on the RS6000/560
    (9.3 -> 13.7 MFLOPS before compiler flags).  The compiled ("V6")
    backend stacks the paper's Version 5-6 compiler rung on top: where an
    engine is available it must run at least 2x faster than fused
    (measured: ~2.3x via the C engine on this container); where no engine
    exists the rung is skipped and recorded as unavailable rather than
    silently benchmarking the fused fallback.
    """
    steps, repeats = 25, 3
    compiled_ok = get_backend("compiled").available()
    results = {}
    for backend in available_backends():
        if backend == "compiled":
            if not compiled_ok:
                results[backend] = {"available": False}
                continue
            results[backend] = {
                "engine": get_backend("compiled").ops().engine
            }
        solver = _solver_for(backend)
        solver.run(4)  # warm dt cache, caches, workspace (and any JIT)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            solver.run(steps)
            best = min(best, (time.perf_counter() - t0) / steps)
        results.setdefault(backend, {})["ms_per_step"] = 1e3 * best
    speedup = (
        results["baseline"]["ms_per_step"] / results["fused"]["ms_per_step"]
    )
    payload = {
        "grid": {"nx": 250, "nr": 100},
        "viscous": True,
        "steps_timed": steps,
        "backends": results,
        "fused_speedup_vs_baseline": round(speedup, 3),
    }
    if compiled_ok:
        compiled_speedup = (
            results["fused"]["ms_per_step"]
            / results["compiled"]["ms_per_step"]
        )
        payload["compiled_speedup_vs_fused"] = round(compiled_speedup, 3)
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    path = os.path.join(OUTPUT_DIR, "GATES_kernels.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"\nbackend ladder (250x100 viscous): {json.dumps(payload, indent=2)}")
    assert speedup >= 1.5, (
        f"fused backend speedup {speedup:.2f}x below the 1.5x acceptance bar "
        f"({results})"
    )
    if compiled_ok:
        assert compiled_speedup >= 2.0, (
            f"compiled backend speedup {compiled_speedup:.2f}x vs fused is "
            f"below the 2x acceptance bar ({results})"
        )


def test_metrics_on_overhead():
    """An *enabled* registry must cost < 3% of a step (``metrics=True``
    is meant to stay on for whole production runs).

    Times the real recording mix one step performs — histogram observes
    and counter incs in their measured proportion — against the median
    uninstrumented step time.
    """
    import time

    from repro.obs import Counter, Histogram, MetricsRegistry, use

    sc = jet_scenario(nx=64, nr=32, viscous=True)
    sc.solver.run(2)

    reg = MetricsRegistry()
    with use(metrics=reg):
        sc.solver.step()
    observes = sum(
        m.updates for _, m in reg.items() if isinstance(m, Histogram)
    )
    counts = sum(m.updates for _, m in reg.items() if isinstance(m, Counter))

    samples = []
    for _ in range(9):
        t0 = time.perf_counter()
        sc.solver.step()
        samples.append(time.perf_counter() - t0)
    step_seconds = sorted(samples)[len(samples) // 2]

    live = MetricsRegistry()
    live.bind_rank(0)
    reps = 300
    t0 = time.perf_counter()
    for _ in range(reps):
        for _ in range(observes):
            live.observe("h", 0.001)
        for _ in range(counts):
            live.count("c", 1.0)
    per_step_cost = (time.perf_counter() - t0) / reps

    assert per_step_cost < 0.03 * step_seconds, (
        f"metrics-on overhead {1e6 * per_step_cost:.1f}us/step "
        f"({observes} observes + {counts} counts) exceeds 3% of the "
        f"{1e3 * step_seconds:.2f}ms step"
    )


def test_faultycomm_passthrough_overhead():
    """A FaultyComm with injection disabled must cost < 3% of a step.

    Measured directly rather than by differencing two noisy step timings
    (as ``tests/test_obs.py`` bounds the unobserved seam): count
    the communicator calls one distributed step makes per rank, time the
    inert decorator's per-call cost over a no-op inner communicator, and
    bound ``calls x per_call`` against the median real step time — stable
    on loaded machines because the decorator cost is measured in isolation.
    """
    import time

    import numpy as np

    from repro import jet_scenario
    from repro.faults import FaultyComm
    from repro.parallel.runner import ParallelJetSolver

    sc = jet_scenario(nx=120, nr=50, viscous=True)

    # Calls per step per rank, from the real run's own statistics.
    res = ParallelJetSolver(sc.state, sc.solver.config, nranks=4).run(5)
    stats = res.interior_rank_stats
    calls_per_step = (stats.sends + stats.recvs) / 5

    # Median per-rank step time of the same run.
    step_seconds = sorted(res.per_rank_wall)[2] / 5

    class _NoopComm:
        rank, size = 1, 4
        stats = None
        _payload = np.empty((4, 2, 50))

        def send(self, dest, tag, array):
            return None

        def recv(self, source, tag, timeout=None):
            return self._payload

    inert = FaultyComm(_NoopComm(), None)
    payload = np.empty((4, 2, 50))
    reps = 20_000
    t0 = time.perf_counter()
    for _ in range(reps // 2):
        inert.send(2, "t", payload)
        inert.recv(2, "t")
    per_call = (time.perf_counter() - t0) / reps

    overhead = calls_per_step * per_call
    assert overhead < 0.03 * step_seconds, (
        f"inert FaultyComm overhead {1e6 * overhead:.1f}us/step "
        f"({calls_per_step:.0f} calls) exceeds 3% of the "
        f"{1e3 * step_seconds:.2f}ms step"
    )


def test_distributed_step_4ranks(benchmark):
    """One distributed step (4 ranks, real message passing) — measures the
    virtual-cluster overhead relative to the serial step."""
    from repro.parallel.runner import ParallelJetSolver

    sc = jet_scenario(nx=120, nr=50, viscous=True)

    def run_block():
        ParallelJetSolver(sc.state, sc.solver.config, nranks=4).run(5)

    benchmark.pedantic(run_block, rounds=3, iterations=1)
