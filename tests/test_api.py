"""The repro.api.run facade: routing, RunResult, shims, acceptance."""

import json

import numpy as np
import pytest

from repro import RunResult, jet_scenario, run, scenario_by_name
from repro.analysis.metrics import component_breakdown
from repro.obs import Trace, Tracer, load_trace
from repro.parallel.runner import serial_reference

SMALL = dict(nx=48, nr=24)


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def test_serial_route_matches_low_level_reference():
    sc = jet_scenario(**SMALL)
    res = run(sc, steps=6)
    assert isinstance(res, RunResult)
    assert res.mode == "serial" and res.nprocs == 1 and res.version is None
    ref = serial_reference(sc.state, sc.solver.config, 6)
    assert np.array_equal(res.state.q, ref.q)
    assert res.steps == 6 and res.t > 0
    assert res.timings.wall_seconds > 0
    # the input scenario was not mutated
    assert not np.array_equal(res.state.q, sc.state.q)


def test_parallel_route_bitwise_identical_to_serial():
    serial = run("jet", steps=6, **SMALL)
    par = run("jet", steps=6, nprocs=4, **SMALL)
    assert par.mode == "parallel" and par.nprocs == 4
    assert par.version == 7  # the facade default
    assert np.array_equal(par.state.q, serial.state.q)
    assert len(par.per_rank_stats) == 4
    assert len(par.timings.per_rank_wall) == 4
    assert par.total_stats.sends > 0


@pytest.mark.parametrize("name", ["jet", "jet-euler"])
def test_parallel_route_other_decompositions(name):
    """One exchange core, three decompositions: radial and 2-D runs must be
    bitwise-equal to the serial reference *and* to the axial route — the
    contract behind ``RunRequest.fingerprint()`` treating the decomposition
    as route-irrelevant."""
    serial = run(name, steps=6, **SMALL)
    axial = run(name, steps=6, nprocs=2, **SMALL)
    rad = run(name, steps=6, nprocs=2, decomposition="radial", **SMALL)
    two_d = run(name, steps=6, nprocs=4, decomposition="2d", px=2, pr=2, **SMALL)
    assert np.array_equal(axial.state.q, serial.state.q)
    assert np.array_equal(rad.state.q, serial.state.q)
    assert np.array_equal(two_d.state.q, serial.state.q)
    assert rad.t == serial.t and two_d.t == serial.t


def test_simulated_route_by_platform_name():
    res = run("jet", platform="Cray T3D", nprocs=16, version=5)
    assert res.mode == "simulated" and res.state is None and res.t is None
    assert res.sim is not None and res.sim.execution_time > 0
    assert res.steps == res.sim.total_steps
    assert "Cray T3D" in res.summary()
    # Euler scenario routes to the Euler workload
    eu = run("jet-euler", platform="Cray T3D", nprocs=16, version=5)
    assert eu.sim.execution_time < res.sim.execution_time


def test_simulated_route_shared_memory_ymp():
    res = run("jet", platform="Cray Y-MP", nprocs=4, version=5, trace=True)
    assert res.mode == "simulated" and res.sim.execution_time > 0
    # the analytic model has no segments to trace: its totals are the timelines
    assert res.trace.spans == [] and res.sim.timelines[0].busy > 0


def test_scenario_registry_and_kw_forwarding():
    sc = scenario_by_name("advection", n=16)
    assert sc.grid.nx == 16
    res = run("advection", steps=2, n=16)
    assert res.scenario == "advection" and res.state.is_physical()
    res2 = sc.run(2)  # Scenario.run goes through the facade
    assert np.array_equal(res.state.q, res2.state.q)


def test_interior_rank_stats_raises_without_interior_rank():
    res = run("jet", steps=2, nprocs=2, **SMALL)
    with pytest.raises(ValueError, match="nprocs=2"):
        res.interior_rank_stats
    serial = run("jet", steps=2, **SMALL)
    with pytest.raises(ValueError, match="serial"):
        serial.interior_rank_stats
    ok = run("jet", steps=2, nprocs=3, **SMALL)
    assert ok.interior_rank_stats.sends > 0


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


def test_missing_steps_raises():
    with pytest.raises(TypeError, match="steps is required"):
        run("jet", **SMALL)


def test_unknown_scenario_name():
    with pytest.raises(KeyError, match="unknown scenario"):
        run("warp-drive", steps=1)


def test_scenario_kwargs_rejected_with_scenario_object():
    sc = jet_scenario(**SMALL)
    with pytest.raises(TypeError, match="only valid when the scenario is"):
        run(sc, steps=1, nx=99)


# ---------------------------------------------------------------------------
# Tracing through the facade
# ---------------------------------------------------------------------------


def test_trace_true_collects_trace():
    res = run("jet", steps=2, **SMALL, trace=True)
    assert isinstance(res.trace, Trace)
    assert res.trace.total("solver.step") > 0
    assert res.trace_path is None


def test_trace_accepts_existing_tracer():
    tr = Tracer(name="mine")
    res = run("jet", steps=2, **SMALL, trace=tr)
    assert res.trace is tr.trace and res.trace.meta["name"] == "mine"


def test_untraced_run_leaves_no_trace():
    res = run("jet", steps=2, **SMALL)
    assert res.trace is None


def test_trace_path_writes_chrome_file(tmp_path):
    p = tmp_path / "out.json"
    res = run("jet", steps=2, nprocs=2, **SMALL, trace=str(p))
    assert res.trace_path == str(p)
    doc = json.loads(p.read_text())
    assert doc["traceEvents"]
    assert load_trace(str(p)).ranks() == [0, 1]


# ---------------------------------------------------------------------------
# component_breakdown cross-checks
# ---------------------------------------------------------------------------


def test_component_breakdown_matches_des_cost_model():
    """The trace-derived split must equal the simulator's own timeline
    accounting (the analytic cost model) exactly."""
    res = run(
        "jet", platform="LACE/560+ALLNODE-S", nprocs=4, version=5,
        steps_window=4, trace=True,
    )
    bd = component_breakdown(res.trace)
    assert bd.source == "simulated"
    tls = res.sim.timelines
    n = len(tls)
    assert bd.computation == pytest.approx(sum(t.compute for t in tls) / n)
    assert bd.startup == pytest.approx(sum(t.library for t in tls) / n)
    assert bd.transfer == pytest.approx(sum(t.comm_wait for t in tls) / n)


def test_component_breakdown_rejects_empty_trace():
    with pytest.raises(ValueError, match="no sim"):
        component_breakdown(Trace())


def test_acceptance_traced_4rank_paper_grid(tmp_path):
    """ISSUE acceptance: a traced 4-rank run of the 125x50 jet exports
    valid Chrome-trace JSON whose per-rank compute/communicate breakdown
    agrees with the independent measurements within 15%."""
    p = tmp_path / "jet4.json"
    res = run("jet", steps=8, nprocs=4, nx=125, nr=50, trace=str(p))

    doc = json.loads(p.read_text())
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert {"M", "X"} <= phases
    assert len(doc["traceEvents"]) > 100

    bd = component_breakdown(res.trace)
    assert bd.source == "measured"
    assert len(bd.per_rank) == 4

    # total (compute + comm) vs the independently accumulated per-rank wall
    wall = sum(res.timings.per_rank_wall) / 4
    assert bd.total == pytest.approx(wall, rel=0.15)
    # communication vs the CommStats time dimension (measured separately
    # inside the message library)
    comm = sum(st.comm_seconds for st in res.per_rank_stats) / 4
    assert bd.communication == pytest.approx(comm, rel=0.15)

    # the exported file reproduces the in-memory breakdown
    bd2 = component_breakdown(load_trace(str(p)))
    assert bd2.total == pytest.approx(bd.total, rel=1e-3)
    assert bd2.communication == pytest.approx(bd.communication, rel=1e-3)


# ---------------------------------------------------------------------------
# A run leaves nothing for the cycle collector
# ---------------------------------------------------------------------------


def _live_workspaces():
    import gc

    from repro.numerics.kernels import StepWorkspace

    return {id(o) for o in gc.get_objects() if isinstance(o, StepWorkspace)}


@pytest.mark.parametrize("nprocs", [1, 2], ids=["serial", "2-virtual-ranks"])
def test_run_frees_its_workspace_without_the_cycle_collector(nprocs):
    """The solver's cached split operators must not tie it into a
    reference cycle: each run's workspace (≈ 5 MB on the paper's grid)
    would then wait for a generation-2 collection, which back-to-back
    runs never trigger — ``ru_maxrss`` climbed 53 -> 105 MB over 20 runs."""
    import gc

    gc.collect()
    before = _live_workspaces()
    gc.disable()
    try:
        res = run("jet", steps=4, nprocs=nprocs, backend="fused", **SMALL)
        assert res.state is not None
        assert _live_workspaces() <= before
    finally:
        gc.enable()


def test_ten_serial_runs_do_not_grow_peak_rss():
    """Fresh interpreter, automatic collection off: after the first run has
    set the high-water mark, nine more leave it where it was."""
    import os
    import subprocess
    import sys

    code = (
        "import gc, resource\n"
        "from repro import run\n"
        "gc.disable()\n"
        "peaks = []\n"
        "for _ in range(10):\n"
        "    run('jet', steps=4, nx=250, nr=100, backend='fused')\n"
        "    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        "print(peaks[0], peaks[-1])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    ).stdout.split()
    first_kb, last_kb = int(out[0]), int(out[1])
    assert last_kb - first_kb < 2048, f"ru_maxrss {first_kb} -> {last_kb} kB"
