"""The experiment dispatch harness, the artifact table and Figure 1's real
solver run."""

from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    ARTIFACTS,
    EXPERIMENTS,
    characterize,
    run_experiment,
)
from repro.experiments.runners import run_fig01

OUTPUT_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "output"


class TestDispatch:
    def test_every_paper_artifact_registered(self):
        expected = {"table1", "table2"} | {f"fig{k:02d}" for k in range(1, 14)}
        expected |= {
            "ablation_cache",
            "ablation_decomposition",
            "ablation_imbalance",
            "ablation_startup",
            "ablation_vector",
            "workload_comparison",
            "claims",
        }
        assert expected == set(EXPERIMENTS)

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="known"):
            run_experiment("fig99")

    def test_table_dispatch(self):
        out = run_experiment("table2")
        assert "580" in out


class TestArtifactTable:
    """``ARTIFACTS`` names every committed ``.txt`` artifact, once.  The
    byte check itself is ``scripts/run_missing.py --check``."""

    def test_slugs_match_the_committed_files(self):
        committed = {p.stem for p in OUTPUT_DIR.glob("*.txt")}
        listed = {a.slug for a in ARTIFACTS}
        assert sorted(committed - listed) == [], "orphan artifact file(s)"
        assert sorted(listed - committed) == [], "missing from the commit"

    def test_every_entry_names_an_experiment(self):
        assert {a.experiment for a in ARTIFACTS} <= set(EXPERIMENTS)

    def test_no_two_headers_share_a_slug(self):
        assert len({a.slug for a in ARTIFACTS}) == len(ARTIFACTS)


class TestFig01:
    def test_small_run_produces_jet_contour(self, tmp_path):
        npz = tmp_path / "field.npz"
        out = run_fig01(nx=48, nr=24, steps=60, save_npz=str(npz))
        assert "X MOMENTUM" in out
        assert "M=1.5" in out
        data = np.load(npz)
        mom = data["axial_momentum"]
        assert mom.shape[0] == 48
        assert np.isfinite(mom).all()
        # The jet core carries momentum ~ rho*u ~ 1.5; ambient ~ 0.
        assert mom.max() > 1.2
        assert abs(mom[:, -1]).max() < 0.2


class TestCharacterize:
    def test_measured_rows(self):
        c = characterize()
        assert c["ns"].total_flops > c["euler"].total_flops
        assert 1.0 < c["ns_over_euler_volume"] < 3.0
