"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out and "table2" in out
        assert "ablation_decomposition" in out and "workload_comparison" in out

    def test_experiment_table2(self, capsys):
        # A paper table and a Section-8 ablation, each by its id.
        for exp_id, marker in [("table2", "580"), ("ablation_vector", "penalty")]:
            assert main(["experiment", exp_id]) == 0
            assert marker in capsys.readouterr().out

    def test_simulate_distributed(self, capsys):
        assert main(
            ["simulate", "--platform", "Cray T3D", "--procs", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "Cray T3D" in out and "exec=" in out

    def test_simulate_ymp(self, capsys):
        assert main(
            ["simulate", "--platform", "cray y-mp", "--procs", "4", "--euler"]
        ) == 0
        assert "Y-MP" in capsys.readouterr().out

    def test_jet(self, capsys):
        assert main(
            ["jet", "--nx", "40", "--nr", "20", "--steps", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "physical=True" in out
        assert "axial momentum" in out

    def test_sweep(self, capsys):
        assert main(
            ["sweep", "--platforms", "Cray T3D", "--procs", "2", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "Cray T3D" in out

    def test_trace(self, capsys):
        assert main(
            ["trace", "--platform", "IBM SP", "--procs", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "rank  0" in out

    def test_unknown_platform_raises(self):
        with pytest.raises(KeyError):
            main(["simulate", "--platform", "Connection Machine", "--procs", "4"])


class TestRequestOptions:
    """``run`` and ``submit`` share one option table that restates no
    default: the config dataclasses in ``repro.request`` own those."""

    def test_run_selects_a_backend(self, capsys):
        assert main(["run", "sod", "--steps", "5", "--backend", "fused"]) == 0
        assert "serial" in capsys.readouterr().out

    def test_run_and_submit_expose_the_same_request_options(self, capsys):
        from repro.__main__ import _REQUEST_OPTIONS

        assert {"--nprocs", "--platform", "--backend",
                "--checkpoint-every"} <= set(_REQUEST_OPTIONS)
        assert all("default" not in kw for kw in _REQUEST_OPTIONS.values())
        for command in ("run", "submit"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            usage = capsys.readouterr().out
            assert [f for f in _REQUEST_OPTIONS if f not in usage] == []

    def test_absent_flag_is_absent_from_the_kwargs(self):
        import argparse

        from repro.__main__ import _add_request_options, _request_options

        p = argparse.ArgumentParser()
        _add_request_options(p)
        assert _request_options(p.parse_args([])) == {}
        assert _request_options(
            p.parse_args(["--nprocs", "2", "--checkpoint-every", "5"])
        ) == {"nprocs": 2, "checkpoint_every": 5}


class TestSweeps:
    def test_records_and_rendering(self):
        from repro.experiments.sweeps import sweep, sweep_table
        from repro.machines.platforms import CRAY_T3D, CRAY_YMP
        from repro.simulate.workload import NAVIER_STOKES

        recs = sweep([CRAY_T3D, CRAY_YMP], [NAVIER_STOKES], procs=(2, 8, 16))
        # Y-MP clamped to 8 CPUs: only two of its three grid points run.
        ymp = [r for r in recs if "Y-MP" in r.platform]
        assert [r.nprocs for r in ymp] == [2, 8]
        t3d = [r for r in recs if "T3D" in r.platform]
        assert t3d[0].speedup == pytest.approx(2.0)
        assert t3d[-1].speedup > 14
        out = sweep_table(recs)
        assert "Cray T3D" in out and "Cray Y-MP" in out


class TestReport:
    """``repro report`` reads every artifact a run leaves: a ledger, a
    Chrome trace and a flight post-mortem, each told by its first line."""

    def test_ledger(self, tmp_path, capsys):
        from repro import run

        path = tmp_path / "runs.jsonl"
        run("sod", steps=3, ledger=path)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ms/step" in out and "per-stage breakdown" in out

    def test_default_is_the_anchored_ledger(self, tmp_path, monkeypatch,
                                            capsys):
        from repro import run

        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path / "data"))
        monkeypatch.chdir(tmp_path)
        run("sod", steps=3, metrics=True, ledger=True)
        assert (tmp_path / "data" / "BENCH_runs.jsonl").exists()
        assert main(["report"]) == 0
        assert "BENCH_runs.jsonl" in capsys.readouterr().out

    def test_torn_first_ledger_line_skips_only_that_line(self, tmp_path,
                                                         capsys):
        import json

        from repro import run

        good = json.dumps(run("sod", steps=3, metrics=True).perf.to_dict())
        path = tmp_path / "torn.jsonl"
        path.write_text('{"schema": "repro.perf/1", "scen\n' + good + "\n")
        with pytest.warns(UserWarning, match=r"torn\.jsonl:1:"):
            assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("fingerprint=") == 1

    def test_faulted_trace_prints_split_and_fault_timeline(self, tmp_path,
                                                           capsys):
        from repro import run

        path = tmp_path / "lace.json"
        run("jet", platform="LACE/560+Ethernet", nprocs=4, version=5,
            steps_window=4, faults="lossy-ethernet", trace=str(path))
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "simulated components" in out and "(paper Fig. 5)" in out
        assert "mean" in out
        assert "fault timeline" in out and "fault.sim_delay" in out

    def test_flight_post_mortem(self, tmp_path, capsys):
        from repro import run

        path = tmp_path / "run.flight.jsonl"
        run("jet", nx=48, nr=24, steps=2, nprocs=2, flight=str(path))
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "flight recorder, 2 rank(s)" in out
        assert "send" in out and "peer=1" in out and "peer=0" in out

    def test_missing_file_names_the_path(self, tmp_path, capsys):
        path = tmp_path / "absent.jsonl"
        assert main(["report", str(path)]) == 2
        assert str(path) in capsys.readouterr().err
