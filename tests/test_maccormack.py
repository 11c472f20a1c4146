"""The split Gottlieb-Turkel operators on model problems."""

import numpy as np
import pytest

from repro.numerics.maccormack import (
    CORRECTOR,
    PREDICTOR,
    SplitOperator,
    SweepWorkspace,
)


def _advection_workspace(a: float, periodic_n: int) -> SweepWorkspace:
    """Linear advection q_t + a q_x = 0 on a periodic domain."""

    def flux(q, phase):
        return a * q, None

    def wrap_low(f, phase):
        return np.stack([f[:, -1], f[:, -2]])

    def wrap_high(f, phase):
        return np.stack([f[:, 0], f[:, 1]])

    return SweepWorkspace(flux=flux, low_ghosts=wrap_low, high_ghosts=wrap_high)


def _advect(q0, a, h, dt, steps):
    """Alternate L1 and L2 exactly as the solver does."""
    ws = _advection_workspace(a, q0.shape[1])
    L1 = SplitOperator(axis=1, h=h, variant=1, workspace=ws)
    L2 = SplitOperator(axis=1, h=h, variant=2, workspace=ws)
    q = q0
    for k in range(steps):
        q = (L1 if k % 2 == 0 else L2).apply(q, dt)
    return q


class TestValidation:
    def test_bad_variant(self):
        ws = _advection_workspace(1.0, 8)
        with pytest.raises(ValueError, match="variant"):
            SplitOperator(axis=1, h=0.1, variant=3, workspace=ws)


class TestLinearAdvection:
    def _wave(self, n):
        x = np.arange(n) / n
        return np.sin(2 * np.pi * x)[None, :, None] * np.ones((1, 1, 2)), x

    def _error(self, n, dt, steps, a=1.0):
        """Max error of the wave advected ``steps`` steps on ``n`` points."""
        q0, x = self._wave(n)
        q = _advect(q0.copy(), a, 1.0 / n, dt, steps)
        return np.abs(q[0, :, 0] - np.sin(2 * np.pi * (x - a * dt * steps))).max()

    def test_advects_at_correct_speed(self):
        assert self._error(64, 0.4 / 64, 100) < 2e-3

    def test_conservation_on_periodic_domain(self):
        n = 32
        q0, _ = self._wave(n)
        q0 += 2.0
        q = _advect(q0.copy(), 1.0, 1.0 / n, 0.01, 51)
        assert q[0, :, 0].sum() == pytest.approx(q0[0, :, 0].sum(), abs=1e-11)

    def test_spatial_order_of_accuracy(self):
        """Alternated L1/L2 at fixed (small) dt, time error negligible:
        error ~ h^4."""
        errs = [self._error(n, 1e-4, 200) for n in (32, 64)]
        order = np.log2(errs[0] / errs[1])
        assert order > 3.5, f"measured spatial order {order:.2f}"

    def test_temporal_order_of_accuracy(self):
        """Fixed fine grid, space error negligible, T = 0.25 in 80 and 160
        steps (CFL 0.8, 0.4; 40 steps is CFL 1.6 and blows up): error ~ dt^2."""
        errs = [self._error(256, 0.25 / steps, steps) for steps in (80, 160)]
        order = np.log2(errs[0] / errs[1])
        assert 1.9 < order < 2.1, f"measured temporal order {order:.4f}"

    def test_l1_l2_symmetry(self):
        """L2 on the mirrored field equals the mirror of L1."""
        n, a, h, dt = 32, 1.0, 1.0 / 32, 0.005
        rng = np.random.default_rng(3)
        smooth = np.cumsum(rng.standard_normal(n))
        smooth = np.convolve(smooth, np.ones(5) / 5, mode="same")
        q0 = smooth[None, :, None] * np.ones((1, 1, 2))

        ws = _advection_workspace(a, n)
        L1 = SplitOperator(axis=1, h=h, variant=1, workspace=ws)
        q1 = L1.apply(q0.copy(), dt)

        # Mirror: x -> -x flips the sign of the advection speed.
        q0m = q0[:, ::-1, :].copy()
        wsm = _advection_workspace(-a, n)
        L2 = SplitOperator(axis=1, h=h, variant=2, workspace=wsm)
        q2 = L2.apply(q0m, dt)
        assert np.allclose(q2[:, ::-1, :], q1, atol=1e-12)


class TestSourceTerm:
    def test_pure_source_integration(self):
        """q_t = S with zero flux: predictor-corrector gives exact linear
        growth for constant S."""

        def flux(q, phase):
            return np.zeros_like(q), np.ones_like(q)

        ws = SweepWorkspace(flux=flux)
        L = SplitOperator(axis=1, h=1.0, variant=1, workspace=ws)
        q0 = np.zeros((1, 8, 2))
        q1 = L.apply(q0, dt=0.25)
        assert np.allclose(q1, 0.25)

    def test_inv_weight_scales_rate(self):
        def flux(q, phase):
            return np.zeros_like(q), np.ones_like(q)

        ws = SweepWorkspace(flux=flux, inv_weight=0.5)
        L = SplitOperator(axis=1, h=1.0, variant=1, workspace=ws)
        q1 = L.apply(np.zeros((1, 8, 2)), dt=1.0)
        assert np.allclose(q1, 0.5)


class TestFixStateHook:
    def test_hook_called_both_phases(self):
        calls = []

        def fix(q, phase):
            calls.append(phase)
            return q

        def flux(q, phase):
            return np.zeros_like(q), None

        ws = SweepWorkspace(flux=flux, fix_state=fix)
        L = SplitOperator(axis=1, h=1.0, variant=1, workspace=ws)
        L.apply(np.zeros((1, 8, 2)), dt=0.1)
        assert calls == [PREDICTOR, CORRECTOR]
