"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out and "table2" in out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "580" in capsys.readouterr().out

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
