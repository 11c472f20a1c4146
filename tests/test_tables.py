"""Tables 1 and 2 generators."""

import pytest

from repro.analysis.tables import (
    PAPER_EULER,
    PAPER_NS,
    deep_halo_row,
    measured_characteristics,
    table1,
    table2,
    table_deep_halo,
)


class TestTable1:
    def test_paper_rows(self):
        out = table1("paper")
        assert "145,000" in out
        assert "80,000" in out
        assert "125" in out
        assert "Euler" in out and "N-S" in out

    def test_unknown_source(self):
        with pytest.raises(ValueError):
            table1("guessed")

    def test_measured_characteristics(self):
        """Short instrumented run of the real distributed solver: one halo
        per neighbour per step, ``H`` columns deep."""
        ns = measured_characteristics(viscous=True, nx=40)
        eu = measured_characteristics(viscous=False, nx=40)
        # Our kernels: NS roughly double Euler's work.
        assert 1.5 < ns.total_flops / eu.total_flops < 3.0
        # Both models pay the same startups — 2 sends + 2 receives per
        # step, and the dt all-reduce's pair every tenth step ...
        assert ns.startups_per_proc == eu.startups_per_proc == 4.2 * 5000
        # ... Euler ships half the depth (H = 4 against 8).
        halo = 2 * 4 * 100 * 8  # two neighbours x 4 variables x nr doubles
        assert ns.volume_bytes_per_proc == (8 * halo + 0.8) * 5000
        assert eu.volume_bytes_per_proc == (4 * halo + 0.8) * 5000
        # Same order of magnitude as the paper's Table 1 in work; a quarter
        # of its startups for twice its bytes.
        assert 0.2 < ns.total_flops / PAPER_NS.total_flops < 1.5
        assert ns.startups_per_proc / PAPER_NS.startups_per_proc == pytest.approx(0.26, abs=0.01)
        assert ns.volume_bytes_per_proc / PAPER_NS.volume_bytes_per_proc == pytest.approx(2.05, abs=0.01)

    def test_deep_halo_table(self):
        """The paper-form table: per processor, at two processor counts."""
        row2, row4 = deep_halo_row(True, 2), deep_halo_row(True, 4)
        # One neighbour at p = 2, two from p = 3 on; the dt pair amortized.
        assert (row2["startups"], row4["startups"]) == (2.2, 4.2)
        assert (row2["bytes"], row4["bytes"]) == (25600.8, 51200.8)
        # Redundant FP: H = 8 ghost columns per neighbour of 250 / p owned.
        assert row2["redundant_flops"] / row2["useful_flops"] == pytest.approx(8 / 125)
        assert row4["redundant_flops"] / row4["useful_flops"] == pytest.approx(16 / 62.5)
        out = table_deep_halo(procs=(2,))
        assert "6.4%" in out and "3.2%" in out  # N-S and Euler at p = 2
        assert "16.0" in out and "2.2" in out  # paper startups/step, ours


class TestTable2:
    def test_paper_values_reproduced_exactly(self):
        out = table2()
        # The FPs/Byte column of the paper: 580/290/145/73 for NS.
        for v in ("580", "290", "145", "72"):
            assert v in out
        # Euler: 405/203/101/51.
        for v in ("405", "203", "101", "51"):
            assert v in out
        # FPs/Start-up: 906K half-ladder.
        assert "906K" in out and "453K" in out and "113K" in out
        assert "642K" in out and "321K" in out

    def test_p1_infinite(self):
        assert "inf" in table2(procs=(1, 2))
