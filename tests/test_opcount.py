"""Kernel operation counts (the measured Table-1 FP column)."""

import pytest

from repro import constants
from repro.numerics.opcount import euler_ops, navier_stokes_ops


class TestOpCounts:
    def test_ns_heavier_than_euler(self):
        assert navier_stokes_ops().per_cell_step > 1.5 * euler_ops().per_cell_step

    def test_total_scales_with_grid_and_steps(self):
        ops = navier_stokes_ops()
        base = ops.total(nx=100, nr=100, steps=1000)
        assert ops.total(nx=200, nr=100, steps=1000) == pytest.approx(2 * base)
        assert ops.total(nx=100, nr=100, steps=2000) == pytest.approx(2 * base)

    def test_paper_configuration_magnitude(self):
        """Same order as the paper's 145/77 GFLOP (our kernels are leaner;
        the ``table1`` artifact prints both totals)."""
        ns = navier_stokes_ops().total()
        eu = euler_ops().total()
        assert 0.2 * constants.PAPER_TOTAL_FLOPS_NS < ns < constants.PAPER_TOTAL_FLOPS_NS
        assert 0.2 * constants.PAPER_TOTAL_FLOPS_EULER < eu < constants.PAPER_TOTAL_FLOPS_EULER

    def test_sweeps_dominate(self):
        ops = navier_stokes_ops()
        assert ops.x_sweep + ops.r_sweep > 0.7 * ops.per_cell_step
