"""Typed run requests: serialization, fingerprints, and the run() shim."""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import api
from repro.faults import FaultPlan
from repro.request import (
    ExecutionConfig,
    ObservabilityConfig,
    ResilienceConfig,
    RunRequest,
)
from repro.scenarios import shock_tube_scenario

CONFIGS = {
    "execution": ExecutionConfig,
    "resilience": ResilienceConfig,
    "observability": ObservabilityConfig,
}


class TestRoundTrip:
    def test_to_from_dict_identity(self):
        req = RunRequest.from_run_args(
            "sod", steps=25, nprocs=2, substrate="virtual",
            faults="lossy-ethernet", fault_seed=7, checkpoint_every=5,
        )
        wire = req.to_dict()
        back = RunRequest.from_dict(wire)
        assert back == req
        assert back.fingerprint() == req.fingerprint()

    def test_wire_is_json_serializable(self):
        req = RunRequest.from_run_args("jet", steps=10, nx=24, nr=12)
        wire = json.loads(json.dumps(req.to_dict()))
        assert RunRequest.from_dict(wire).fingerprint() == req.fingerprint()

    def test_unknown_schema_rejected(self):
        wire = RunRequest.from_run_args("sod", steps=5).to_dict()
        wire["schema"] = "repro.request/99"
        with pytest.raises(ValueError, match="schema"):
            RunRequest.from_dict(wire)

    def test_unknown_config_key_refused_not_run_serially(self):
        """``"nproc"`` for ``"nprocs"`` used to be dropped: the dict ran —
        and was cached — as a *serial* workload."""
        wire = {"scenario": "sod", "steps": 5, "execution": {"nproc": 4}}
        with pytest.raises(ValueError, match=r"execution field\(s\) \['nproc'\]"):
            RunRequest.from_dict(wire)
        for group in ("resilience", "observability"):
            with pytest.raises(ValueError, match=f"unknown {group} field"):
                RunRequest.from_dict({"scenario": "sod", group: {"bogus": 1}})

    def test_removed_profile_field_refused(self):
        """``profile`` (the cProfile knob) is gone: a wire dict carrying it
        is refused like any unknown field, and without it the request
        keeps its fingerprint."""
        wire = RunRequest.from_run_args("sod", steps=5, metrics=True).to_dict()
        fingerprint = RunRequest.from_dict(wire).fingerprint()
        wire["observability"]["profile"] = 5
        with pytest.raises(ValueError, match="unknown observability field.*profile"):
            RunRequest.from_dict(wire)
        assert "profile" not in {
            f.name for f in dataclasses.fields(ObservabilityConfig)
        }
        assert fingerprint == RunRequest.from_run_args("sod", steps=5).fingerprint()

    def test_unknown_top_level_key_refused(self):
        """``"step"`` for ``"steps"`` used to load as ``steps=None``."""
        with pytest.raises(ValueError, match=r"\['step'\].*'steps'"):
            RunRequest.from_dict({"scenario": "sod", "step": 5})

    def test_missing_keys_still_mean_the_default(self):
        req = RunRequest.from_dict(
            {"scenario": "sod", "execution": {"nprocs": 2}, "resilience": None}
        )
        assert req == RunRequest.from_run_args("sod", nprocs=2)

    def test_adhoc_scenario_object_not_serializable(self):
        req = RunRequest.from_run_args(shock_tube_scenario(nx=32), steps=5)
        with pytest.raises(ValueError, match="scenario"):
            req.to_dict()

    def test_fingerprint_stable_across_processes(self):
        req = RunRequest.from_run_args("sod", steps=25, nprocs=2)
        code = (
            "import json, sys\n"
            "from repro.request import RunRequest\n"
            "req = RunRequest.from_dict(json.loads(sys.argv[1]))\n"
            "print(req.fingerprint())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(req.to_dict())],
            capture_output=True, text=True, env=os.environ.copy(),
            check=True,
        )
        assert out.stdout.strip() == req.fingerprint()


class TestFingerprint:
    def test_covers_physics_and_execution(self):
        base = RunRequest.from_run_args("sod", steps=25)
        assert base.fingerprint() != RunRequest.from_run_args(
            "sod", steps=26).fingerprint()
        assert base.fingerprint() != RunRequest.from_run_args(
            "jet", steps=25).fingerprint()
        assert base.fingerprint() != RunRequest.from_run_args(
            "sod", steps=25, nprocs=2).fingerprint()

    def test_excludes_observability_and_timeout(self):
        base = RunRequest.from_run_args("sod", steps=25)
        noisy = RunRequest.from_run_args(
            "sod", steps=25, metrics=True, ledger=True,
            timeout=9.0,
        )
        assert noisy.fingerprint() == base.fingerprint()

    def test_serial_ignores_parallel_only_knobs(self):
        a = RunRequest.from_run_args("sod", steps=25, substrate="virtual")
        b = RunRequest.from_run_args("sod", steps=25, substrate="process")
        assert a.fingerprint() == b.fingerprint()

    def test_parallel_distinguishes_substrate(self):
        a = RunRequest.from_run_args(
            "sod", steps=25, nprocs=2, substrate="virtual")
        b = RunRequest.from_run_args(
            "sod", steps=25, nprocs=2, substrate="process")
        assert a.fingerprint() != b.fingerprint()

    def test_fault_seed_in_identity(self):
        a = RunRequest.from_run_args(
            "sod", steps=25, nprocs=2, faults="lossy-ethernet", fault_seed=1)
        b = RunRequest.from_run_args(
            "sod", steps=25, nprocs=2, faults="lossy-ethernet", fault_seed=2)
        assert a.fingerprint() != b.fingerprint()

    def test_replace_changes_fingerprint(self):
        req = RunRequest.from_run_args("sod", steps=25)
        bumped = req.replace(steps=50)
        assert bumped.steps == 50
        assert bumped.fingerprint() != req.fingerprint()


class TestPinnedBytes:
    """Literal fingerprints and wire bytes: a refactor of the request path
    must not orphan a result store or move ``index.jsonl`` sizes."""

    @pytest.mark.parametrize("kw, fingerprint", [
        (dict(steps=25), "be3bc1784b93"),
        (dict(steps=25, nprocs=2), "b8cbaf7e3b31"),
        (dict(steps=10, nprocs=2, substrate="process",
              faults="lossy-ethernet", fault_seed=7, checkpoint_every=5),
         "ccb0eb216d41"),
        (dict(platform="Cray T3D", nprocs=16, version=5), "25b583d224b2"),
    ])
    def test_fingerprints(self, kw, fingerprint):
        assert RunRequest.from_run_args("jet", **kw).fingerprint() == fingerprint

    def test_wire_bytes(self):
        req = RunRequest.from_run_args(
            "jet", steps=12, nx=48, nr=24, nprocs=2, substrate="process",
            backend="compiled", checkpoint_every=4, metrics=True,
            faults=FaultPlan(drop=0.05, seed=3, crashes=((1, 4),)),
        )
        assert json.dumps(req.to_dict()) == (
            '{"schema": "repro.request/1", "scenario": "jet", "steps": 12, '
            '"scenario_kw": {"nx": 48, "nr": 24}, "execution": {"nprocs": 2, '
            '"platform": null, "substrate": "process", "decomposition": '
            '"axial", "px": null, "pr": null, "version": 7, "backend": '
            '"compiled", "steps_window": 30, "timeout": 120.0}, '
            '"resilience": {"faults": {"seed": 3, "name": "", "drop": '
            '0.05, "duplicate": 0.0, "reorder": 0.0, "truncate": 0.0, "delay": '
            '0.0, "max_delay": 0.002, "max_transmits": 3, "slow_ranks": [], '
            '"op_seconds": 0.0002, "crashes": [[1, 4]], "crash_attempts": 1, '
            '"recv_timeout": 0.5, "recv_retries": 4, "backoff": 1.5, '
            '"always_wrap": false}, "fault_seed": null, "checkpoint_every": 4, '
            '"max_restarts": 2}, "observability": {"trace": null, "metrics": '
            'true, "ledger": null, "stream": null, "flight": '
            'null}}'
        )
        assert req.fingerprint() == "7014db024bba"
        assert RunRequest.from_dict(json.loads(json.dumps(req.to_dict()))) == req


class TestDeclaredOnce:
    """A run option's name and default live in one config dataclass; every
    other layer reads the fields instead of re-listing them."""

    @pytest.mark.parametrize("group", CONFIGS)
    def test_every_field_routes_to_its_config_and_round_trips(self, group):
        for f in dataclasses.fields(CONFIGS[group]):
            # A non-default value of the field's own kind (opaque here:
            # nothing is validated until the request runs).
            value = {bool: True, int: 3, float: 9.5, str: "other",
                     type(None): "other"}[type(f.default)]
            req = RunRequest.from_run_args("sod", steps=5, **{f.name: value})
            assert getattr(getattr(req, group), f.name) == value
            assert req.scenario_kw == {}
            wire = req.to_dict()
            assert wire[group][f.name] == value
            assert all(f.name not in wire[g] for g in CONFIGS if g != group)
            assert RunRequest.from_dict(wire) == req

    def test_signatures_restate_no_option(self):
        options = {
            f.name for cls in CONFIGS.values() for f in dataclasses.fields(cls)
        }
        routes = (api._run_serial, api._run_parallel, api._run_simulated)
        for fn in (api.run, RunRequest.from_run_args, *routes):
            assert not options & set(inspect.signature(fn).parameters), fn
        for fn in routes:  # they take the request itself instead
            assert "req" in inspect.signature(fn).parameters, fn

    def test_unknown_keyword_is_a_scenario_override(self):
        req = RunRequest.from_run_args("sod", steps=5, nx=32, nprcs=4)
        assert req.scenario_kw == {"nx": 32, "nprcs": 4}
        with pytest.raises(TypeError, match="nprcs"):
            api.run("sod", steps=5, nprcs=4)

    def test_scenario_object_refuses_constructor_overrides(self):
        with pytest.raises(TypeError, match="only valid when the scenario"):
            RunRequest.from_run_args(shock_tube_scenario(nx=32), steps=5, nx=64)

    def test_live_platform_becomes_platform_obj_and_name(self):
        from repro.machines.platforms import CRAY_T3D

        req = RunRequest.from_run_args("jet", platform=CRAY_T3D, nprocs=4)
        assert req.platform_obj is CRAY_T3D
        assert req.execution.platform == CRAY_T3D.name
        assert req.resolve_platform() is CRAY_T3D
        assert req.fingerprint() == RunRequest.from_run_args(
            "jet", platform=CRAY_T3D.name, nprocs=4).fingerprint()


class TestRunShim:
    def test_run_equals_run_request(self):
        direct = api.run("sod", steps=30)
        via_req = api.run_request(RunRequest.from_run_args("sod", steps=30))
        assert np.array_equal(direct.state.rho, via_req.state.rho)
        assert np.array_equal(direct.state.u, via_req.state.u)
        assert direct.t == via_req.t

    def test_result_carries_request(self):
        res = api.run("sod", steps=10)
        assert isinstance(res.request, RunRequest)
        assert res.request.scenario == "sod"
        assert res.request.fingerprint() == RunRequest.from_run_args(
            "sod", steps=10).fingerprint()

    def test_report_fingerprint_is_request_fingerprint(self):
        res = api.run("sod", steps=10, metrics=True, ledger=False)
        assert res.perf is not None
        assert res.perf.fingerprint == res.request.fingerprint()

    def test_config_dataclass_defaults_match_run_signature(self):
        """The defaults themselves, pinned (``run`` no longer restates
        them, so there is no second copy to compare against)."""
        assert dataclasses.asdict(RunRequest("sod").execution) == dict(
            nprocs=1, platform=None, substrate="virtual",
            decomposition="axial", px=None, pr=None, version=7, backend=None,
            steps_window=30, timeout=120.0)
        assert dataclasses.asdict(ResilienceConfig()) == dict(
            faults=None, fault_seed=None, checkpoint_every=0, max_restarts=2)
        assert dataclasses.asdict(ObservabilityConfig()) == dict(
            trace=None, metrics=None, ledger=None,
            stream=None, flight=None)


class TestDataDir:
    def test_default_ledger_respects_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        assert api.DEFAULT_LEDGER == str(tmp_path / "BENCH_runs.jsonl")

    def test_metrics_ledger_lands_in_data_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        res = api.run("sod", steps=10, metrics=True, ledger=True)
        ledger = tmp_path / "BENCH_runs.jsonl"
        assert ledger.exists()
        entry = json.loads(ledger.read_text().splitlines()[-1])
        assert entry["fingerprint"] == res.request.fingerprint()

    def test_default_is_repo_anchored(self, monkeypatch):
        monkeypatch.delenv("REPRO_DATA_DIR", raising=False)
        from repro.config import data_dir, repo_root

        assert data_dir() == repo_root() / "benchmarks" / "output"
