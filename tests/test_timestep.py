"""CFL time-step estimation."""

import numpy as np
import pytest

from repro import run
from repro.grid import Grid
from repro.msglib import RankFailure
from repro.numerics.timestep import SolutionDiverged, stable_dt
from repro.physics.state import FlowState

from conftest import random_physical_state


class TestConvectiveLimit:
    def test_quiescent_reference(self):
        g = Grid(nx=8, nr=8, length_x=1.0, length_r=1.0)
        st = FlowState.quiescent(g)
        dt = stable_dt(st.q, g.dx, g.dr, cfl=0.5)
        # c = 1 everywhere: dt = cfl / (1/dx + 1/dr).
        assert dt == pytest.approx(0.5 / (1 / g.dx + 1 / g.dr))

    def test_scales_linearly_with_grid(self):
        a = Grid(nx=8, nr=8, length_x=1.0, length_r=1.0)
        b = Grid(nx=8, nr=8, length_x=2.0, length_r=2.0)
        qa = FlowState.quiescent(a).q
        assert stable_dt(qa, b.dx, b.dr) == pytest.approx(
            2 * stable_dt(qa, a.dx, a.dr)
        )

    def test_faster_flow_smaller_dt(self):
        g = Grid(nx=8, nr=8, length_x=1.0, length_r=1.0)
        slow = FlowState.from_primitive(g, 1.0, 0.1, 0.0, 1 / 1.4)
        fast = FlowState.from_primitive(g, 1.0, 2.0, 0.0, 1 / 1.4)
        assert stable_dt(fast.q, g.dx, g.dr) < stable_dt(slow.q, g.dx, g.dr)

    def test_cfl_proportionality(self, small_grid, rng):
        st = random_physical_state(small_grid, rng)
        g = small_grid
        assert stable_dt(st.q, g.dx, g.dr, cfl=0.25) == pytest.approx(
            0.5 * stable_dt(st.q, g.dx, g.dr, cfl=0.5)
        )


class TestViscousLimit:
    def test_large_viscosity_engages_diffusive_limit(self):
        g = Grid(nx=8, nr=8, length_x=1.0, length_r=1.0)
        q = FlowState.quiescent(g).q
        dt_inviscid = stable_dt(q, g.dx, g.dr, mu=0.0)
        dt_viscous = stable_dt(q, g.dx, g.dr, mu=5.0)
        assert dt_viscous < dt_inviscid

    def test_tiny_viscosity_does_not_bind(self):
        g = Grid(nx=8, nr=8, length_x=1.0, length_r=1.0)
        q = FlowState.quiescent(g).q
        assert stable_dt(q, g.dx, g.dr, mu=1e-9) == stable_dt(q, g.dx, g.dr)


class TestDecompositionProperty:
    def test_min_of_slab_dts_equals_global(self, rng):
        """The distributed solver's allreduce-min must be bit-exact."""
        g = Grid(nx=40, nr=12)
        st = random_physical_state(g, rng)
        global_dt = stable_dt(st.q, g.dx, g.dr)
        slabs = [(0, 13), (13, 26), (26, 40)]
        local = [
            stable_dt(st.q[:, lo:hi, :], g.dx, g.dr) for lo, hi in slabs
        ]
        assert min(local) == global_dt  # exact equality


#: A jet too coarse to stay stable: it goes non-finite within ~100 steps.
DIVERGING = dict(nx=24, nr=12, steps=2000, backend="baseline", ledger=False)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDivergence:
    """A run whose state goes non-finite stops with a structured error
    naming the step, instead of returning ``t = nan``."""

    def test_serial_run_raises_naming_the_step(self):
        with pytest.raises(SolutionDiverged, match=r"diverged at step \d+") as exc:
            run("jet", **DIVERGING)
        assert 0 < exc.value.step < DIVERGING["steps"]
        assert not 0.0 < exc.value.dt < np.inf

    @pytest.mark.parametrize("substrate", ["virtual", "process"])
    def test_distributed_run_raises_a_rank_failure(self, substrate):
        with pytest.raises(RankFailure) as exc:
            run("jet", nprocs=2, substrate=substrate, **DIVERGING)
        assert isinstance(exc.value.__cause__, SolutionDiverged)
        assert exc.value.step == exc.value.__cause__.step > 0
