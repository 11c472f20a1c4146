"""PerfReport derivation, the run ledger, and the regression gate.

The acceptance bar from the issue: ``run(..., metrics=True)`` yields
per-stage MFLOPS and a computation:communication ratio on *both*
execution substrates (virtual cluster and DES), the ledger round-trips,
and the gate fails on an injected 2x slowdown but passes the baseline.
"""

import copy
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
from repro.obs.report import LEDGER_SCHEMA, config_fingerprint


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
# Regression gate
# ---------------------------------------------------------------------------


def _load_perf_gate():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perf_gate", os.path.join(root, "scripts", "perf_gate.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bench_doc():
    return {
        "schema": "repro.bench-core/1",
        "calibration_ms": 20.0,
        "repeats": 3,
        "cases": {
            "ns-serial-fused": {
                "ms_per_step": 2.0,
                "mflops": 500.0,
                "comp_comm_ratio": None,
                "fingerprint": "abc123def456",
                "tolerance": 0.15,
                "config": {"scenario": "jet", "nprocs": 1},
            },
        },
    }


def test_perf_gate_passes_identical_results():
    gate = _load_perf_gate()
    doc = _bench_doc()
    rows, failures = gate.compare(doc, copy.deepcopy(doc))
    assert failures == []
    assert all(r["ok"] for r in rows)


def test_perf_gate_fails_on_2x_slowdown():
    gate = _load_perf_gate()
    base = _bench_doc()
    cur = copy.deepcopy(base)
    cur["cases"]["ns-serial-fused"]["ms_per_step"] *= 2.0
    rows, failures = gate.compare(cur, base)
    assert failures
    assert any("x2.00" in f for f in failures)


def test_perf_gate_normalizes_by_calibration():
    """A uniformly 2x-slower machine (calibration and case both doubled)
    is not a regression."""
    gate = _load_perf_gate()
    base = _bench_doc()
    cur = copy.deepcopy(base)
    cur["calibration_ms"] *= 2.0
    cur["cases"]["ns-serial-fused"]["ms_per_step"] *= 2.0
    rows, failures = gate.compare(cur, base)
    assert failures == []


def test_perf_gate_fails_on_fingerprint_change():
    gate = _load_perf_gate()
    base = _bench_doc()
    cur = copy.deepcopy(base)
    cur["cases"]["ns-serial-fused"]["fingerprint"] = "fff000fff000"
    rows, failures = gate.compare(cur, base)
    assert failures and any("fingerprint" in f for f in failures)


def test_perf_gate_fails_on_missing_case():
    gate = _load_perf_gate()
    base = _bench_doc()
    cur = copy.deepcopy(base)
    cur["cases"] = {}
    rows, failures = gate.compare(cur, base)
    assert failures and any("missing" in f.lower() for f in failures)


def test_committed_baseline_matches_schema():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "benchmarks", "baseline", "BENCH_core.json")
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["schema"] == "repro.bench-core/1"
    assert doc["calibration_ms"] > 0
    assert len(doc["cases"]) == 11
    # Every decomposition is benchmarked on the process substrate, the
    # compiled ("V6") rung is pinned alongside baseline/fused — serial and
    # on two process ranks of the paper's grid — and the overlapped
    # exchange has its blocking twin to compare against.
    assert {"ns-p2-process-fused", "ns-p2-radial-fused",
            "ns-p4-2d-fused", "ns-serial-compiled",
            "ns-p2-process-compiled",
            "ns-p2-overlap-fused"} <= set(doc["cases"])
    for case in doc["cases"].values():
        assert case["ms_per_step"] > 0
        assert len(case["fingerprint"]) == 12
        assert 0 < case["tolerance"] < 1
    sp = doc["speedup"]
    assert sp["grid"] == [250, 100]
    assert sp["cpu_count"] >= 1
    assert [r["nprocs"] for r in sp["rows"]] == [1, 2, 4]
    assert sp["rows"][0]["speedup"] == 1.0
    assert all(r["ms_per_step"] > 0 for r in sp["rows"])


def _harness_report(tmp_path, compiled_ms, block_ms=None):
    """A traced harness ``--out`` report holding what HARNESS_GATES reads
    (the half-width block at half the step unless ``block_ms`` says)."""
    values = {
        "parallel.speedup.v5": 1.4,
        "msglib.process.oneway_us.6400B": 35.0,
        "msglib.virtual.oneway_us.6400B": 60.0,
        "numerics.step_ms.compiled": compiled_ms,
        "numerics.block_step_ms.compiled": block_ms or compiled_ms / 2,
        "numerics.step_ms.fused": 10.0,
    }
    doc = {"result": {
        "failed": 0, "attempted": 12,
        "metrics": {k: {"value": v} for k, v in values.items()},
    }}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_harness_gate_holds_the_compiled_rung_under_030_of_fused(
    tmp_path, monkeypatch, capsys
):
    gate = _load_perf_gate()
    monkeypatch.setattr(gate.os, "cpu_count", lambda: 2)
    assert gate.check_harness_report(_harness_report(tmp_path, 2.9)) == 0
    assert gate.check_harness_report(_harness_report(tmp_path, 3.1)) == 1
    assert "numerics.step_ms.compiled <= 0.30" in capsys.readouterr().err


def test_harness_gate_holds_the_half_block_under_056_of_the_step(
    tmp_path, monkeypatch, capsys
):
    """Amdahl's fixed cost: with no per-step cost that ignores the block
    width, the half-width block costs half the step."""
    gate = _load_perf_gate()
    monkeypatch.setattr(gate.os, "cpu_count", lambda: 2)
    assert gate.check_harness_report(_harness_report(tmp_path, 2.5, 1.39)) == 0
    assert gate.check_harness_report(_harness_report(tmp_path, 2.5, 1.41)) == 1
    assert "numerics.block_step_ms.compiled <= 0.56" in capsys.readouterr().err
