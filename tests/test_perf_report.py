"""PerfReport derivation, the run ledger, and the performance gate.

``run(..., metrics=True)`` yields per-stage MFLOPS and a
computation:communication ratio on *both* execution substrates (virtual
cluster and DES), the ledger round-trips, and every row of
``scripts/perf_gate.py`` passes a report inside its bound and fails one
that misses it by a hair.
"""

import importlib.util
import json
import os

import pytest

from repro.api import run
from repro.obs import (
    PerfReport,
    append_ledger,
    read_ledger,
    render_ledger,
    render_report,
)
from repro.obs.report import LEDGER_SCHEMA, config_fingerprint, rank_split


# ---------------------------------------------------------------------------
# run(..., metrics=True) across substrates
# ---------------------------------------------------------------------------


def _stage_names(perf):
    return [s["name"] for s in perf.stages]


def test_serial_run_yields_stage_mflops():
    res = run("jet", steps=3, nx=32, nr=16, metrics=True)
    p = res.perf
    assert isinstance(p, PerfReport)
    assert p.mode == "serial" and p.nprocs == 1 and p.steps == 3
    assert p.grid == (32, 16) and p.viscous is True
    assert {"sweep_x", "sweep_r", "filter"} <= set(_stage_names(p))
    assert p.mflops_total and p.mflops_total > 0
    for s in p.stages:
        assert s["seconds"] >= 0 and 0 <= s["share"] <= 1
    assert abs(sum(s["share"] for s in p.stages) - 1.0) < 1e-9
    # serial runs communicate nothing: no ratio, but a metrics snapshot
    assert p.comp_comm_ratio is None
    assert p.metrics["counters"]["solver.steps"]["0"]["value"] == 3.0
    # metrics=True alone must not touch any ledger
    assert res.metrics is not None


def test_parallel_run_yields_comp_comm_ratio():
    res = run("jet", steps=4, nx=48, nr=24, nprocs=2, metrics=True)
    p = res.perf
    assert p.mode == "parallel" and p.nprocs == 2
    assert p.comp_comm_ratio is not None and p.comp_comm_ratio > 0
    assert len(p.per_rank) == 2
    for row in p.per_rank:
        assert row["comm_seconds"] > 0
        assert row["bytes_sent"] > 0
    assert p.mflops_total and p.mflops_total > 0


def test_simulated_run_yields_perf_report():
    res = run(
        "jet", platform="Cray T3D", nprocs=4, version=5,
        steps_window=4, metrics=True,
    )
    p = res.perf
    assert p.mode == "simulated" and p.platform == "Cray T3D"
    assert p.comp_comm_ratio is not None and p.comp_comm_ratio > 1
    assert p.mflops_total and p.mflops_total > 0
    names = _stage_names(p)
    assert "compute" in names
    assert len(p.per_rank) == 4


def test_metrics_off_run_has_no_perf_report():
    res = run("jet", steps=2, nx=32, nr=16)
    assert res.perf is None and res.metrics is None


def test_faulted_run_counts_recoveries_in_report():
    res = run(
        "jet", steps=6, nx=32, nr=16, nprocs=2,
        faults="lossy-ethernet", fault_seed=11, metrics=True,
    )
    faults = res.perf.faults
    assert faults, "faulted run produced an empty fault summary"
    assert all(v > 0 for v in faults.values())


# ---------------------------------------------------------------------------
# Ledger round-trip
# ---------------------------------------------------------------------------


def test_ledger_roundtrip(tmp_path):
    res = run("jet", steps=2, nx=32, nr=16, metrics=True)
    path = tmp_path / "runs.jsonl"
    append_ledger(res.perf, path)
    append_ledger(res.perf, path)
    back = read_ledger(path)
    assert len(back) == 2
    assert back[0].to_dict() == res.perf.to_dict()
    text = render_ledger(back)
    assert "jet-ns" in text and "ms/step" in text
    full = render_report(back[0])
    assert "sweep_x" in full and "MFLOPS" in full


def test_old_ledger_line_with_profile_top_loads(tmp_path):
    """A line written while reports carried ``profile_top`` (the removed
    cProfile rows) still loads and renders: unknown keys are ignored."""
    res = run("jet", steps=2, nx=32, nr=16, metrics=True)
    line = res.perf.to_dict()
    line["profile_top"] = [
        {"func": "solver.py:1(step)", "ncalls": 2, "tottime": 0.1, "cumtime": 0.2}
    ]
    path = tmp_path / "old.jsonl"
    path.write_text(json.dumps(line) + "\n")
    (back,) = read_ledger(path)
    assert back.to_dict() == res.perf.to_dict()
    assert "profile" not in render_report(back)


def test_a_run_of_no_steps_reports_no_rank_rows():
    """``rank_split`` refuses a snapshot without a split; the report of a
    run that took no step still builds, with no per-rank rows."""
    res = run("sod", steps=0, metrics=True)
    assert res.perf.per_rank == [] and res.perf.comp_comm_ratio is None
    with pytest.raises(ValueError, match="no sim"):
        rank_split(res.perf.metrics)


def test_run_ledger_kwarg_appends(tmp_path):
    path = tmp_path / "led.jsonl"
    run("jet", steps=2, nx=32, nr=16, metrics=True, ledger=path)
    run("jet", steps=2, nx=32, nr=16, ledger=path)  # ledger implies metrics
    assert len(read_ledger(path)) == 2


def test_ledger_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"schema": "repro.perf/999"}) + "\n")
    with pytest.raises(ValueError, match="repro.perf/999"):
        read_ledger(path)


def test_config_fingerprint_is_stable_and_order_free():
    a = config_fingerprint(nx=64, nr=32, steps=20)
    b = config_fingerprint(steps=20, nr=32, nx=64)
    assert a == b and len(a) == 12
    assert config_fingerprint(nx=65, nr=32, steps=20) != a


# ---------------------------------------------------------------------------
# Performance gate
# ---------------------------------------------------------------------------


def _load_perf_gate():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perf_gate", os.path.join(root, "scripts", "perf_gate.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _reports(tmp_path, compiled_ms=2.5, block_ms=None, **overrides):
    """One ``--out`` shaped report per row group of ``perf_gate.GROUPS``,
    each holding every metric its rows and notes read, inside its bound
    (the half-width block at half the step unless ``block_ms`` says);
    ``overrides`` replace values by name."""
    gate = _load_perf_gate()
    values = {
        "parallel.speedup.v5": 1.4,
        "msglib.process.oneway_us.6400B": 35.0,
        "msglib.virtual.oneway_us.6400B": 60.0,
        "numerics.step_ms.compiled": compiled_ms,
        "numerics.block_step_ms.compiled": block_ms or compiled_ms / 2,
        "numerics.step_ms.fused": 10.0,
        "curve.speedup.p1": 1.0,
        "curve.speedup.p2": 1.6,
        "curve.speedup.p4": 2.5,
        "step_ms.ns-p2-process-fused": 4.0,
        "step_ms.ns-p2-radial-fused": 3.0,
        "step_ms.ns-p4-2d-fused": 5.0,
        "overlap.step_ms.v5": 4.0,
        "overlap.step_ms.v6": 4.1,
        "overlap.comm_reduction.des": 1.0,
        "overlap.comm_reduction.measured": -0.24,
        "service.hit_growth": 1.1,
        "service.store_refresh_ms": 0.02,
        "service.socket_rtt_ms": 0.1,
        "service.hit_ms": 0.3,
        "service.submit_ms.hit": 0.4,
    }
    values.update(overrides)
    paths = []
    for workload, rows in gate.GROUPS.items():
        read = {n for _, names, *_ in rows + gate.NOTES.get(workload, [])
                for n in names}
        doc = {"workload": workload, "result": {
            "failed": 0, "attempted": 12,
            "metrics": {k: {"value": v} for k, v in values.items() if k in read},
        }}
        path = tmp_path / f"{workload}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


def test_harness_gate_holds_the_compiled_rung_under_030_of_fused(
    tmp_path, monkeypatch, capsys
):
    gate = _load_perf_gate()
    monkeypatch.setattr(gate.os, "cpu_count", lambda: 2)
    assert gate.check(_reports(tmp_path, 2.9)) == 0
    assert gate.check(_reports(tmp_path, 3.1)) == 1
    assert "numerics.step_ms.compiled <= 0.30" in capsys.readouterr().err


def test_harness_gate_holds_the_half_block_under_056_of_the_step(
    tmp_path, monkeypatch, capsys
):
    """Amdahl's fixed cost: with no per-step cost that ignores the block
    width, the half-width block costs half the step."""
    gate = _load_perf_gate()
    monkeypatch.setattr(gate.os, "cpu_count", lambda: 2)
    assert gate.check(_reports(tmp_path, 2.5, 1.39)) == 0
    assert gate.check(_reports(tmp_path, 2.5, 1.41)) == 1
    assert "numerics.block_step_ms.compiled <= 0.56" in capsys.readouterr().err


#: Per row of ``perf_gate.GATES`` (same order): values that meet its bound
#: and values that miss it by a hair.
HAIRS = {
    "speedup-v5": ({"parallel.speedup.v5": 1.0},
                   {"parallel.speedup.v5": 0.99}),
    "message-cost": ({"msglib.process.oneway_us.6400B": 60.0},
                     {"msglib.process.oneway_us.6400B": 60.01}),
    "compiled-rung": ({"compiled_ms": 2.99, "block_ms": 1.0},
                      {"compiled_ms": 3.01, "block_ms": 1.0}),
    "half-block": ({"block_ms": 1.39}, {"block_ms": 1.41}),
    "speedup-p4": ({"curve.speedup.p4": 2.0}, {"curve.speedup.p4": 1.99}),
    "radial-parity": ({"step_ms.ns-p2-radial-fused": 8.0},
                      {"step_ms.ns-p2-radial-fused": 8.01}),
    "overlap-step": ({"overlap.step_ms.v6": 4.59},
                     {"overlap.step_ms.v6": 4.61}),
    "hit-growth": ({"service.hit_growth": 1.5},
                   {"service.hit_growth": 1.51}),
    "store-refresh": ({"service.store_refresh_ms": 1.0},
                      {"service.store_refresh_ms": 1.01}),
}


@pytest.mark.parametrize("row", range(len(HAIRS)), ids=list(HAIRS))
def test_gate_row_holds_its_bound_to_a_hair(row, tmp_path, monkeypatch, capsys):
    gate = _load_perf_gate()
    assert len(gate.GATES) == len(HAIRS)
    monkeypatch.setattr(gate.os, "cpu_count", lambda: 4)
    what = gate.GATES[row][0]
    meets, misses = HAIRS[list(HAIRS)[row]]
    assert gate.check(_reports(tmp_path, **meets)) == 0
    assert gate.check(_reports(tmp_path, **misses)) == 1
    err = capsys.readouterr().err
    assert what in err
    assert [w for w, *_ in gate.GATES if w in err] == [what]


def test_gate_row_above_the_host_cores_is_not_enforced(
    tmp_path, monkeypatch, capsys
):
    """Four ranks on two cores time-share: the x2 row is printed, not held."""
    gate = _load_perf_gate()
    monkeypatch.setattr(gate.os, "cpu_count", lambda: 2)
    reports = _reports(tmp_path, **{"curve.speedup.p4": 0.5,
                                    "overlap.step_ms.v6": 9.0})
    assert gate.check(reports) == 0
    out = capsys.readouterr().out
    for what in ("curve.speedup.p4 >= 2.0", "overlap.step_ms.v6 <= 1.15"):
        line = next(l for l in out.splitlines() if what in l)
        assert "not enforced: 2 core(s) < 4" in line


def test_gate_row_fails_on_a_missing_metric(tmp_path, monkeypatch, capsys):
    gate = _load_perf_gate()
    monkeypatch.setattr(gate.os, "cpu_count", lambda: 4)
    paths = _reports(tmp_path)
    path = tmp_path / "bench_core.json"
    doc = json.loads(path.read_text())
    del doc["result"]["metrics"]["step_ms.ns-p2-radial-fused"]
    path.write_text(json.dumps(doc))
    assert gate.check(paths) == 1
    assert "step_ms.ns-p2-radial-fused" in capsys.readouterr().err


def test_gate_runs_only_the_groups_of_the_reports_given(
    tmp_path, monkeypatch, capsys
):
    """A service-mix report alone is checked by the service rows only, and
    a metric missing from it still fails."""
    gate = _load_perf_gate()
    monkeypatch.setattr(gate.os, "cpu_count", lambda: 4)
    service = str(tmp_path / "service-mix.json")
    _reports(tmp_path)
    assert gate.check([service]) == 0
    out = capsys.readouterr().out
    assert [w for w, *_ in gate.GATES if w in out] == [
        w for w, *_ in gate.SERVICE_GATES]
    assert "note: per call over a kept connection" in out
    doc = json.loads(open(service).read())
    del doc["result"]["metrics"]["service.hit_growth"]
    open(service, "w").write(json.dumps(doc))
    assert gate.check([service]) == 1
    assert "service.hit_growth" in capsys.readouterr().err


def test_gate_refuses_a_report_no_group_reads(tmp_path, capsys):
    gate = _load_perf_gate()
    path = tmp_path / "serial.json"
    path.write_text(json.dumps({"workload": "jet250-serial", "result": {
        "failed": 0, "attempted": 1, "metrics": {}}}))
    assert gate.check([str(path)]) == 2
    assert "jet250-serial" in capsys.readouterr().err


def test_bench_core_output_has_every_gated_metric():
    """The committed ``BENCH_core.json`` is what ``make gates`` writes: the
    1/2/4-rank curve (rank 1 the serial reference) and every metric a
    ``CORE_GATES`` row or note reads."""
    gate = _load_perf_gate()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "benchmarks", "output", "BENCH_core.json")
    with open(path) as fh:
        result = json.load(fh)["result"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["failed"] == 0 and result["attempted"] > 0
    assert [k for k in sorted(values) if k.startswith("curve.speedup.")] == [
        "curve.speedup.p1", "curve.speedup.p2", "curve.speedup.p4"]
    assert values["curve.speedup.p1"] == 1.0
    read = {n for _, names, *_ in gate.CORE_GATES + gate.NOTES["bench_core"]
            for n in names}
    assert read <= set(values)
    assert all(v > 0 for k, v in values.items() if "step_ms" in k)
