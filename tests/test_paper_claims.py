"""Integration: the paper's findings, end to end.

Each test asserts its row(s) of the claims table
(:mod:`repro.experiments.claims`), which measures every finding of the
paper's Sections 6-7 off the series the committed figures draw and prints
it as the ``claims`` artifact.  A failure here means the reproduction has
drifted from the paper, not merely that a number moved.
``TestClaimsTable`` holds every verdict that artifact prints to exactly one
test id of this file.
"""

import ast
import functools
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments import ARTIFACTS
from repro.experiments.claims import claims

ARTIFACT = Path(__file__).parents[1] / "benchmarks" / "output" / next(
    f"{a.slug}.txt" for a in ARTIFACTS if a.experiment == "claims")


@functools.cache
def _table():
    return {c.key: c for c in claims()}


def _holds(*keys):
    for key in keys:
        c = _table()[key]
        assert c.holds, f"{key}: {c.paper!r} measured {c.measured}, {c.bound}"


class TestSection6Ladder:
    def test_mflops_9_3_to_16(self):
        """'9.3 -> 16.0 MFLOPS' from Version 1 to Version 5 (Figure 2)."""
        _holds("mflops-ladder")

    def test_loop_interchange_largest_gain(self):
        """Version 3's loop interchange is the largest single gain."""
        _holds("v2-v3-largest")


class TestSection71LACE:
    def test_ethernet_peaks_near_eight(self):
        """'Ethernet performance reaches its peak at 8 processors for
        Navier-Stokes and at 10 processors for Euler.'"""
        _holds("eth-peak-ns", "eth-peak-euler")

    def test_allnode_keeps_improving_to_16(self):
        """The switched cluster never turns over within 16 processors."""
        _holds("allnode-s-scales")

    def test_allnode_f_70_to_80_percent_faster(self):
        """'ALLNODE-F is about 70%-80% faster than ALLNODE-S.'"""
        _holds("f-over-s")

    def test_sublinearity_beyond_twelve(self):
        """'sublinearity effects begin to show ... beyond 12 processors.'"""
        _holds("sublinear-8-16")

    def test_atm_tracks_allnode_f(self):
        """'The performance of the ATM ... almost identical with
        ALLNODE-F.'"""
        _holds("atm-vs-f")

    def test_fddi_tracks_allnode_s(self):
        _holds("fddi-vs-s")

    def test_busy_falls_linearly_comm_grows_relative(self):
        """Figure 5's structure: busy ~ 1/p, non-overlapped comm roughly
        flat, so their ratio rises with p."""
        _holds("busy-falls", "comm-share-grows")


class TestSection71Versions:
    @pytest.mark.parametrize(
        "key", ["v6-vs-v5-ns", "v6-vs-v5-euler"], ids=["app0", "app1"]
    )
    def test_v6_gains_minimal(self, key):
        """'execution time improvement with Versions 6 ... minimal or even
        worse in many experiments.'"""
        _holds(key)

    def test_v7_worse_on_allnode(self):
        """'The performance [of V7] on ALLNODE-S is appreciably worse than
        Version 5 ... since the number of startups increase.'"""
        _holds("v7-allnode-s")

    def test_v7_helps_ethernet_at_saturation(self):
        """'Not surprisingly, Ethernet performs better with Version 7 than
        with Version 5' (burst spreading on the shared medium)."""
        _holds("v7-ethernet")


class TestSection72Platforms:
    def test_lace_outperforms_sp(self):
        """'Surprisingly, LACE, even with ALLNODE-S, outperforms SP.'"""
        _holds("s-beats-sp")

    def test_t3d_worse_than_allnode_f_everywhere(self):
        _holds("f-beats-t3d")

    def test_t3d_crosses_allnode_s_near_eight(self):
        """'worse than ALLNODE-S for less than 8 processors. ... Beyond 8
        processors, T3D ... performs better than ALLNODE-S.'"""
        _holds("t3d-crosses-s")

    def test_t3d_superior_to_sp(self):
        _holds("t3d-beats-sp")

    def test_t3d_and_sp_speedups_nearly_linear(self):
        """'Both T3D and SP exhibit very good speedup characteristics.'"""
        _holds("speedup-16")

    def test_ymp_best_overall(self):
        """'Cray Y-MP has by far the best performance.'"""
        _holds("ymp-best")

    def test_lace590_16_comparable_to_ymp_1(self):
        """'The performance of LACE/590 with 16 processors is comparable to
        the single node performance of the Y-MP.'"""
        _holds("lace590x16-vs-ymp1")


class TestSection73Libraries:
    @pytest.mark.parametrize(
        "key", ["mpl-vs-pvme-ns", "mpl-vs-pvme-euler"],
        ids=["app0-1.25-2.2", "app1-1.25-2.2"],
    )
    def test_mpl_consistently_faster(self, key):
        """'MPL is consistently faster than PVMe' (paper: ~75% NS, ~40%
        Euler; the ``mpl-gap-order`` row records that ours invert)."""
        _holds(key)

    def test_gap_lives_in_busy_time(self):
        """Figures 11-12: PVMe's extra time is library CPU cost (busy),
        not non-overlapped communication."""
        _holds("mpl-gap-busy")

    def test_sp_nonoverlapped_comm_negligible(self):
        """'the amount of non-overlapped communication is not only
        negligibly small...' (Figures 11-12)."""
        _holds("sp-comm")


class TestSection74LoadBalance:
    def test_near_perfect_balance(self):
        """Figure 13: 'we were able to achieve almost perfect load
        balancing' across the 16 SP processors."""
        _holds("balance")


class TestClaimsTable:
    def test_every_verdict_asserted_by_one_id(self):
        """Every verdict the committed claims artifact prints is asserted
        by exactly one test id of this file (a parametrized test is one
        id per ``key``), and no test asserts a row that prints none."""
        asserted = Counter()
        for fn in ast.walk(ast.parse(Path(__file__).read_text())):
            if not isinstance(fn, ast.FunctionDef) or fn.name[:5] != "test_":
                continue
            body = [a.value for c in ast.walk(fn) if isinstance(c, ast.Call)
                    and getattr(c.func, "id", "") == "_holds"
                    for a in c.args if isinstance(a, ast.Constant)]
            params = [[key] for d in fn.decorator_list
                      if isinstance(d, ast.Call)
                      for key in ast.literal_eval(d.args[1])]
            for param in params or [[]]:
                asserted.update(param + body)
        rows = map(str.split, ARTIFACT.read_text().splitlines())
        printed = {r[0] for r in rows if r and r[-1] in ("holds", "FAILS")}
        assert printed == {k for k, c in _table().items()
                           if c.holds is not None}
        assert asserted == Counter(printed)
