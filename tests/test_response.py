import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bivolt import (BilinearSystem, GridResolutionError, SampledSignal,
                    TimeGrid, delta_eps_signal, expm, impulse_response,
                    impulse_response_subsystem, nascent_response, ode_direct,
                    signal_from_samples, sine_signal, step_signal,
                    volterra_cascade, zero_signal)

from conftest import make_stable_system

PHI1_HALF = 1.2974425414002562  # series sum_{k>=1} 0.5^{k-1}/k!
G_SCALAR_AT_1 = 0.4773024370823822  # e^{-1} * PHI1_HALF


class TestTimeGrid:
    def test_node_count(self):
        assert TimeGrid(0.0, 1.0, 0.1).nodes == 11
        assert TimeGrid(0.0, 1.05, 0.1).nodes == 11
        assert TimeGrid(-1.0, 1.0, 0.5).nodes == 5

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 0.1)


class TestSignals:
    def test_interpolation_and_outside_zero(self):
        grid = TimeGrid(0.0, 1.0, 0.5)
        sig = SampledSignal(grid, np.array([[0.0], [1.0], [0.0]]))
        assert sig.at(0.25)[0] == pytest.approx(0.5)
        assert sig.at(-0.1)[0] == 0.0
        assert sig.at(1.7)[0] == 0.0

    @staticmethod
    def _trapz_mass(sig):
        v = sig.values[:, 0]
        return float(np.sum((v[1:] + v[:-1]) / 2.0) * sig.grid.dt)

    def test_delta_profile_mass_is_exact(self):
        eps = 1e-2
        grid = TimeGrid(0.0, 3 * eps, eps / 20)
        sig = delta_eps_signal(grid, eps)
        assert self._trapz_mass(sig) == pytest.approx(1.0, abs=1e-14)
        assert sig.values[0, 0] == pytest.approx(1.0 / eps)
        assert sig.at(eps / 2)[0] == pytest.approx(1.0 / eps)
        # terminal jump node carries the midpoint value
        idx = round(eps / grid.dt)
        assert sig.values[idx, 0] == pytest.approx(0.5 / eps)

    def test_delta_interior_pulse_mass(self):
        eps = 1e-2
        grid = TimeGrid(0.0, 20 * eps, eps / 20)
        sig = delta_eps_signal(grid, eps, start=10 * eps)
        assert self._trapz_mass(sig) == pytest.approx(1.0, abs=1e-13)

    def test_delta_rejects_coarse_grid(self):
        grid = TimeGrid(0.0, 1.0, 0.01)
        with pytest.raises(GridResolutionError):
            delta_eps_signal(grid, 0.05)

    def test_delta_rejects_offgrid_edges(self):
        grid = TimeGrid(0.0, 1.0, 0.003)
        with pytest.raises(GridResolutionError):
            delta_eps_signal(grid, 0.05)

    def test_support(self):
        grid = TimeGrid(0.0, 1.0, 0.1)
        sig = delta_eps_signal(TimeGrid(0.0, 1.0, 0.01), 0.1)
        lo, hi = sig.support()
        assert lo == 0.0
        assert hi == pytest.approx(0.11)
        assert zero_signal(grid).support() == (0.0, 0.0)

    def test_from_samples_resamples(self):
        grid = TimeGrid(0.0, 1.0, 0.25)
        sig = signal_from_samples(grid, [0.0, 1.0], [[0.0], [1.0]])
        assert_allclose(sig.values[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])


class TestImpulseResponse:
    def test_scalar_matches_series_oracle(self, scalar_system):
        got = impulse_response(scalar_system, [1.0], 1.0)[0]
        assert got == pytest.approx(G_SCALAR_AT_1, abs=1e-14)

    def test_linear_case_reduces(self):
        rng = np.random.default_rng(12)
        base = make_stable_system(rng, n=4, m=2, p=2, with_x0=True)
        sys = BilinearSystem(A=base.A, N=np.zeros((2, 4, 4)), B=base.B,
                             C=base.C, x0=base.x0)
        mu = np.array([0.7, -1.2])
        t = 0.9
        got = impulse_response(sys, mu, t)
        expected = sys.C @ expm(sys.A, t) @ (sys.B @ mu + sys.x0)
        assert_allclose(got, expected, rtol=1e-13)

    def test_zero_weights_leave_initial_condition(self):
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]],
                             x0=[2.0])
        got = impulse_response(sys, [0.0], 1.5)[0]
        assert got == pytest.approx(2.0 * math.exp(-1.5), rel=1e-13)

    def test_rejects_nonpositive_time(self, scalar_system):
        with pytest.raises(ValueError):
            impulse_response(scalar_system, [1.0], 0.0)

    def test_overflow_raises(self):
        # e^{Nhat} = e^{1e6} overflows; the library raises instead of returning NaN
        sys = BilinearSystem(A=[[1e6]], N=[[[1e6]]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(FloatingPointError, match="expm overflow"):
            impulse_response(sys, [1.0], 1.0)


class TestSubsystemImpulseResponse:
    def test_order_one(self):
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]],
                             x0=[0.5])
        got = impulse_response_subsystem(sys, [1.0], 1, 1.0)[0]
        assert got == pytest.approx(1.5 * math.exp(-1.0), rel=1e-13)

    def test_order_two_scalar(self, scalar_system):
        got = impulse_response_subsystem(scalar_system, [1.0], 2, 1.0)[0]
        assert got == pytest.approx(0.25 * math.exp(-1.0), rel=1e-13)

    def test_series_sums_to_impulse_response(self, scalar_system):
        t = 0.8
        total = sum(impulse_response_subsystem(scalar_system, [1.0], k, t)[0]
                    for k in range(1, 12))
        full = impulse_response(scalar_system, [1.0], t)[0]
        # remainder of sum Nhat^{k-1}/k! beyond K=11 is far below 1e-12
        assert total == pytest.approx(full, abs=1e-12)

    def test_rejects_bad_order(self, scalar_system):
        with pytest.raises(ValueError):
            impulse_response_subsystem(scalar_system, [1.0], 0, 1.0)


class TestNascentResponse:
    def test_linear_transition_state(self):
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.0]]], B=[[1.0]], C=[[1.0]],
                             x0=[0.5])
        for eps in (1e-2, 1e-4):
            got = nascent_response(sys, [1.0], eps, eps)[0]
            phi = (math.exp(-eps) - 1.0) / (-eps)
            expected = phi + math.exp(-eps) * 0.5
            assert got == pytest.approx(expected, rel=1e-12)
        # transition state approaches bhat + x0 as eps -> 0
        assert nascent_response(sys, [1.0], 1e-8, 1e-8)[0] == pytest.approx(
            1.5, abs=1e-6)

    def test_first_order_gap_to_impulse_response(self, scalar_system):
        got = nascent_response(scalar_system, [1.0], 1e-3, 1.0)[0]
        assert abs(got - G_SCALAR_AT_1) <= 1e-3

    def test_time_zero_returns_initial_output(self):
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]],
                             x0=[2.0])
        assert nascent_response(sys, [1.0], 1e-3, 0.0)[0] == 2.0

    def test_halving_eps_halves_error(self, scalar_system):
        errs = [abs(nascent_response(scalar_system, [1.0], e, 1.0)[0]
                    - G_SCALAR_AT_1) for e in (2e-2, 1e-2)]
        assert 1.5 <= errs[0] / errs[1] <= 2.5

    def test_rejects_bad_eps(self, scalar_system):
        with pytest.raises(ValueError):
            nascent_response(scalar_system, [1.0], 0.0, 1.0)


class TestOdeDirect:
    def test_linear_step_response(self):
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.0]]], B=[[1.0]], C=[[1.0]])
        grid = TimeGrid(0.0, 1.0, 1e-3)
        out = ode_direct(sys, step_signal(grid), grid)
        assert out.values[-1, 0] == pytest.approx(1.0 - math.exp(-1.0),
                                                  abs=1e-11)

    def test_zero_input_free_response(self):
        rng = np.random.default_rng(3)
        sys = make_stable_system(rng, n=3, with_x0=True)
        grid = TimeGrid(0.0, 2.0, 1e-3)
        out = ode_direct(sys, zero_signal(grid, sys.m), grid)
        expected = sys.C @ expm(sys.A, 2.0) @ sys.x0
        assert_allclose(out.values[-1], expected, rtol=1e-10)

    def test_delta_pulse_matches_nascent_oracle(self, scalar_system):
        eps = 1e-3
        grid = TimeGrid(0.0, 5.0, eps / 50)
        out = ode_direct(scalar_system, delta_eps_signal(grid, eps), grid)
        times = grid.times()
        probes = np.nonzero((times >= 2 * eps)
                            & np.isclose(times % 0.25, 0.0, atol=1e-9))[0]
        worst = max(abs(out.values[i, 0]
                        - nascent_response(scalar_system, [1.0], eps, times[i])[0])
                    for i in probes)
        assert worst <= 1e-6

    def test_rk4_order_on_smooth_problem(self):
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.0]]], B=[[1.0]], C=[[1.0]])
        exact = 1.0 - math.exp(-1.0)
        errs = []
        for dt in (0.02, 0.01):
            grid = TimeGrid(0.0, 1.0, dt)
            out = ode_direct(sys, step_signal(grid), grid)
            errs.append(abs(out.values[-1, 0] - exact))
        ratio = errs[0] / errs[1]
        assert 16.0 * 0.7 <= ratio <= 16.0 * 1.3

    @pytest.mark.parametrize("kind", ["free", "forced"])
    def test_non_finite_state_raises(self, kind):
        # RK4 multiplies the mode a = -1e4 by about 4.0e6 per step of 1e-2,
        # past the largest double at step 47
        x0 = [1.0] if kind == "free" else None
        sys = BilinearSystem(A=[[-1e4]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]],
                             x0=x0)
        grid = TimeGrid(0.0, 1.0, 1e-2)
        u = zero_signal(grid) if kind == "free" else step_signal(grid)
        pattern = r"non-finite at step 47 \(t = 0\.47, dt = 0\.01\)"
        with pytest.raises(FloatingPointError, match=pattern):
            ode_direct(sys, u, grid)
        with pytest.raises(FloatingPointError, match=pattern):
            volterra_cascade(sys, u, 3, grid)

    def test_channel_count_mismatch(self, scalar_system):
        grid = TimeGrid(0.0, 1.0, 0.01)
        with pytest.raises(ValueError):
            ode_direct(scalar_system, zero_signal(grid, 2), grid)


class TestVolterraCascade:
    def test_zero_input(self):
        rng = np.random.default_rng(5)
        sys = make_stable_system(rng, n=3, with_x0=True)
        grid = TimeGrid(0.0, 1.5, 1e-3)
        series = volterra_cascade(sys, zero_signal(grid, sys.m), 3, grid)
        expected = sys.C @ expm(sys.A, 1.5) @ sys.x0
        assert_allclose(series.per_order[0, -1], expected, rtol=1e-10)
        assert np.all(series.per_order[1:] == 0.0)

    def test_linear_coupling_vanishes_exactly(self):
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.0]]], B=[[1.0]], C=[[1.0]])
        grid = TimeGrid(0.0, 2.0, 1e-3)
        u = sine_signal(grid)
        series = volterra_cascade(sys, u, 4, grid)
        direct = ode_direct(sys, u, grid)
        assert np.all(series.per_order[1:] == 0.0)
        assert_allclose(series.total, direct.values, rtol=1e-12, atol=1e-15)

    def test_small_gain_matches_direct(self):
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.2]]], B=[[1.0]], C=[[1.0]])
        grid = TimeGrid(0.0, 5.0, 1e-3)
        u = sine_signal(grid)
        series = volterra_cascade(sys, u, 6, grid)
        direct = ode_direct(sys, u, grid)
        err = np.linalg.norm(series.total - direct.values)
        assert err <= 1e-4 * np.linalg.norm(direct.values)

    def test_per_order_sup_norms_reported(self):
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.2]]], B=[[1.0]], C=[[1.0]])
        grid = TimeGrid(0.0, 3.0, 2e-3)
        series = volterra_cascade(sys, sine_signal(grid), 5, grid)
        sups = series.order_sup_norms
        assert sups.shape == (5,)
        assert np.all(np.diff(sups[1:]) < 0)

    def test_total_recomputed_from_orders(self):
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.2]]], B=[[1.0]], C=[[1.0]])
        grid = TimeGrid(0.0, 1.0, 1e-2)
        series = volterra_cascade(sys, sine_signal(grid), 3, grid)
        assert np.array_equal(series.total, series.per_order.sum(axis=0))
        assert_allclose(series.partial_sums[-1], series.total)

    def test_rejects_bad_order(self, scalar_system):
        grid = TimeGrid(0.0, 1.0, 0.01)
        with pytest.raises(ValueError):
            volterra_cascade(scalar_system, zero_signal(grid), 0, grid)

    def test_rejects_degenerate_grid(self, scalar_system):
        grid = TimeGrid(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            ode_direct(scalar_system, zero_signal(grid), grid)

    def test_third_order_output_approaches_subsystem_impulse_response(
            self, scalar_system):
        eps = 1e-3
        grid = TimeGrid(0.0, 1.0, eps / 20)
        series = volterra_cascade(scalar_system, delta_eps_signal(grid, eps),
                                  3, grid)
        got = series.per_order[2, -1, 0]
        want = impulse_response_subsystem(scalar_system, [1.0], 3, 1.0)[0]
        assert got == pytest.approx(want, rel=2e-2)

    def test_mimo_cascade_matches_direct(self):
        rng = np.random.default_rng(31)
        sys = make_stable_system(rng, n=3, m=2, p=2, coupling=0.15)
        grid = TimeGrid(0.0, 4.0, 1e-3)
        u = sine_signal(grid, mu=[1.0, -0.6])
        series = volterra_cascade(sys, u, 7, grid)
        direct = ode_direct(sys, u, grid)
        err = np.linalg.norm(series.total - direct.values)
        assert err <= 1e-6 * np.linalg.norm(direct.values)

    def test_rejects_implicit_system(self):
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]],
                             E=[[2.0]])
        grid = TimeGrid(0.0, 1.0, 0.01)
        with pytest.raises(ValueError, match="fold_implicit"):
            ode_direct(sys, zero_signal(grid), grid)
        with pytest.raises(ValueError, match="fold_implicit"):
            impulse_response(sys, [1.0], 1.0)
