import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bivolt import (BilinearSystem, GridResolutionError, SampledSignal,
                    TimeGrid, delta_eps_signal, expm, impulse_response,
                    impulse_response_subsystem, nascent_response, ode_direct,
                    phi1_apply, signal_from_samples, sine_signal, step_signal,
                    response, volterra_cascade, zero_signal)
from bivolt.linalg import _affine_flow

from conftest import make_stable_system, transient_growth_system

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

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 2), K=st.integers(1, 14),
           t=st.floats(0.05, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_orders_sum_to_impulse_response(self, n, m, K, t, seed):
        # sum over k of C e^{At} Nhat^{k-1} (bhat/k! + x0/(k-1)!); with
        # nu = ||Nhat||_2 <= 1/2 the terms past K are at most
        # g nu^K / K! times the geometric series sum (nu / (K+1))^i,
        # g = ||C e^{At}||_2 (||bhat|| + ||x0||)
        rng = np.random.default_rng(seed)
        sys = make_stable_system(rng, n=n, m=m, p=2, coupling=0.3, with_x0=True)
        mu = rng.uniform(-1.0, 1.0, m)
        Nhat = np.tensordot(mu, sys.N, axes=1)
        nu = np.linalg.norm(Nhat, 2)
        assume(nu <= 0.5)
        g = np.linalg.norm(sys.C @ expm(sys.A, t), 2) * (
            np.linalg.norm(sys.B @ mu) + np.linalg.norm(sys.x0))
        tail = g * nu**K / math.factorial(K) / (1.0 - nu / (K + 1))
        total = sum(impulse_response_subsystem(sys, mu, k, t)
                    for k in range(1, K + 1))
        full = impulse_response(sys, mu, t)
        assert np.linalg.norm(total - full) <= tail + 1e-14 * g

    def test_rejects_bad_order(self, scalar_system):
        with pytest.raises(ValueError):
            impulse_response_subsystem(scalar_system, [1.0], 0, 1.0)

    def test_orders_past_170_underflow(self, scalar_system, gain2_system):
        # 171! is no double; the weights 1/i taken one per product by Nhat are.
        got = impulse_response_subsystem(gain2_system, [1.0], 171, 1.0)[0]
        want = math.exp(-1.0 + 170 * math.log(2.0) - math.lgamma(172.0))
        assert got == pytest.approx(want, rel=1e-12)
        tiny = impulse_response_subsystem(scalar_system, [1.0], 200, 1.0)
        assert np.isfinite(tiny).all() and abs(tiny[0]) < 1e-300


def normal_system(n, symmetric):
    """A = Q A0 Q^T with Q orthogonal: A0 diagonal or of 2 x 2 rotation blocks."""
    rng = np.random.default_rng([n, int(symmetric), 41])
    if symmetric:
        A0 = np.diag(-np.geomspace(0.5, 4.0, n))
    else:
        A0 = np.zeros((n, n))
        for i, (re, im) in enumerate(zip(-np.geomspace(0.5, 4.0, n // 2),
                                         np.linspace(0.25, 3.0, n // 2))):
            A0[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[re, im], [-im, re]]
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return BilinearSystem(A=Q @ A0 @ Q.T, N=0.3 * rng.standard_normal((2, n, n)) / np.sqrt(n),
                          B=rng.standard_normal((n, 2)), C=rng.standard_normal((2, n)),
                          x0=0.5 * rng.standard_normal(n))


class TestEigenbasisPath:
    """The closed forms' free flow in A's eigenbasis, against C (expm(A, t) x)."""

    MU, EPS = np.array([0.8, -0.5]), 1e-2

    @staticmethod
    def dense(sys, t, x):
        return sys.C @ (expm(sys.A, t) @ x)

    def closed_forms(self, sys, t):
        """(value, dense reference) of every closed form at time t > EPS."""
        mu, eps = self.MU, self.EPS
        Nhat, bhat = np.tensordot(mu, sys.N, axes=1), sys.B @ mu
        pulse = lambda tau: _affine_flow((sys.A + Nhat / eps) * tau, bhat * (tau / eps), sys.x0)
        out = [(impulse_response(sys, mu, t),
                self.dense(sys, t, _affine_flow(Nhat, bhat, sys.x0)))]
        for k in range(1, 5):
            core = bhat / k + sys.x0  # Nhat^{k-1} (bhat/k! + x0/(k-1)!), as the library forms it
            for i in range(1, k):
                core = (Nhat @ core) / i
            out.append((impulse_response_subsystem(sys, mu, k, t), self.dense(sys, t, core)))
        out.append((nascent_response(sys, mu, eps, t), self.dense(sys, t - eps, pulse(eps))))
        out.append((nascent_response(sys, mu, eps, eps), sys.C @ pulse(eps)))
        out.append((nascent_response(sys, mu, eps, eps / 3), sys.C @ pulse(eps / 3)))
        return out

    @pytest.mark.parametrize("n", [4, 20])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_normal_a_matches_dense(self, n, symmetric):
        sys = normal_system(n, symmetric)
        assert sys._eigenbasis is not None
        for t in (0.3, 1.0, 2.5):
            for got, want in self.closed_forms(sys, t):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_gate_refuses_non_normal_a(self):
        sys = dataclasses.replace(transient_growth_system(m=2), x0=[0.3, -0.7])
        assert sys._eigenbasis is None
        for got, want in self.closed_forms(sys, 1.3):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("call", [
        lambda sys: impulse_response(sys, [1.0], 2.0),
        lambda sys: impulse_response_subsystem(sys, [1.0], 3, 2.0),
        lambda sys: nascent_response(sys, [1.0], 1e-3, 2.0),
    ])
    def test_overflow_still_raises(self, call):
        sys = BilinearSystem(A=np.diag([400.0, -1.0]), N=0.1 * np.eye(2), B=[[1.0], [1.0]],
                             C=[[1.0, 1.0]])
        assert sys._eigenbasis is not None
        with pytest.raises(FloatingPointError, match="expm overflow"):
            call(sys)

    def test_pulse_too_narrow_for_n_raises_overflow(self, scalar_system):
        # N / eps overflows at eps = 1e-310: expm's overflow, with no
        # RuntimeWarning on the way, not the usage error of a non-finite M
        with pytest.raises(FloatingPointError, match=r"\|\|M\|\|_1 is not finite"):
            nascent_response(scalar_system, [1.0], 1e-310, 1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_or_eps_refused(self, bad):
        sys = normal_system(4, True)
        for call in (lambda: impulse_response(sys, self.MU, bad),
                     lambda: impulse_response_subsystem(sys, self.MU, 2, bad),
                     lambda: nascent_response(sys, self.MU, self.EPS, bad),
                     lambda: nascent_response(sys, self.MU, bad, 1.0)):
            with pytest.raises(ValueError, match="must be finite"):
                call()


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
        sys = make_stable_system(np.random.default_rng(23), n=4, m=2, p=3, with_x0=True)
        got = nascent_response(sys, [0.6, 1.1], 1e-2, 0.0)
        assert np.array_equal(got, sys.C @ sys.x0)

    def test_halving_eps_halves_error(self, scalar_system):
        errs = [abs(nascent_response(scalar_system, [1.0], e, 1.0)[0]
                    - G_SCALAR_AT_1) for e in (2e-2, 1e-2)]
        assert 1.5 <= errs[0] / errs[1] <= 2.5

    def test_rejects_bad_eps(self, scalar_system):
        with pytest.raises(ValueError):
            nascent_response(scalar_system, [1.0], 0.0, 1.0)

    @staticmethod
    def two_branch(sys, mu, eps, t):
        """The pulse phase for t <= eps, else free flow from x(eps), in two
        exponentials each: phi1_apply for bhat, expm for x0."""
        Nhat = np.tensordot(np.asarray(mu, dtype=float), sys.N, axes=1)
        bhat = sys.B @ mu
        Ahat = sys.A + Nhat / eps
        if t <= eps:
            x = (t / eps) * phi1_apply(Ahat * t, bhat) + expm(Ahat, t) @ sys.x0
        else:
            x_eps = phi1_apply(Ahat * eps, bhat) + expm(Ahat, eps) @ sys.x0
            x = expm(sys.A, t - eps) @ x_eps
        return sys.C @ x

    def test_matches_two_branch_formula(self):
        rng = np.random.default_rng(21)
        for n, m in [(1, 1), (3, 2), (6, 1)]:
            sys = make_stable_system(rng, n=n, m=m, p=2, with_x0=True)
            mu = rng.uniform(-1.0, 1.0, m)
            for eps in (1e-2, 1e-3):
                for t in (0.3 * eps, eps, 1.7 * eps, 1.0):
                    want = self.two_branch(sys, mu, eps, t)
                    got = nascent_response(sys, mu, eps, t)
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_continuous_at_pulse_end(self):
        rng = np.random.default_rng(22)
        sys = make_stable_system(rng, n=3, m=2, p=2, with_x0=True)
        mu, eps = [0.8, -0.4], 1e-3
        at = nascent_response(sys, mu, eps, eps)
        for side in (-1.0, 1.0):
            # a jump would make the gap per unit delta grow as delta shrinks
            slopes = [np.max(np.abs(nascent_response(sys, mu, eps, eps + side * d) - at)) / d
                      for d in (1e-7, 1e-9, 1e-11)]
            assert max(slopes[1:]) <= 2.0 * slopes[0]


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

    @pytest.mark.parametrize("kind", ["free", "forced", "sine"])
    def test_non_finite_state_raises(self, kind):
        # RK4 multiplies the mode a = -1e4 by about 4.0e6 per step of 1e-2,
        # past the largest double at step 47. Under the sine every step is
        # forced and the reduction's map products overflow before the state
        # does; the step named must still be the one stepping names.
        x0 = None if kind == "forced" else [1.0]
        sys = BilinearSystem(A=[[-1e4]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]],
                             x0=x0)
        grid = TimeGrid(0.0, 1.0, 1e-2)
        u = {"free": zero_signal, "forced": step_signal,
             "sine": sine_signal}[kind](grid)
        pattern = r"non-finite at step 47 \(t = 0\.47, dt = 0\.01\)"
        with pytest.raises(FloatingPointError, match=pattern):
            ode_direct(sys, u, grid)
        with pytest.raises(FloatingPointError, match=pattern):
            volterra_cascade(sys, u, 3, grid)

    def test_zero_state_under_overflowing_free_map_stays_zero(self):
        # the same free map as above: its powers overflow from F^64 on, and
        # 0 @ inf is NaN, but stepping a zero state with F keeps it zero
        sys = BilinearSystem(A=[[-1e4]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]])
        grid = TimeGrid(0.0, 3.0, 1e-2)
        assert grid.nodes >= 300
        u = zero_signal(grid)
        assert np.all(ode_direct(sys, u, grid).values == 0.0)
        assert np.all(volterra_cascade(sys, u, 3, grid).per_order == 0.0)

    def test_zero_mode_under_overflowing_map_products_stays_zero(self, monkeypatch):
        # The stiff mode of the free map above, decoupled and never excited:
        # under the sine every step is forced, the products of the step maps
        # overflow in that mode (0 @ inf is NaN), and stepping keeps it zero,
        # so the engines must give the outputs of the slow mode alone.
        reduce_states, reduced = response._reduce, []

        def spy(*args):
            reduced.append(reduce_states(*args))
            return reduced[-1]

        monkeypatch.setattr(response, "_reduce", spy)
        sys = BilinearSystem(A=np.diag([-1e4, -1.0]), N=[np.diag([0.0, 0.5])],
                             B=[[0.0], [1.0]], C=[[1.0, 1.0]], x0=[0.0, 1.0])
        slow = BilinearSystem(A=[[-1.0]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]],
                              x0=[1.0])
        grid = TimeGrid(0.0, 3.0, 1e-2)
        u = sine_signal(grid)
        for outputs in (lambda s: ode_direct(s, u, grid).values,
                        lambda s: volterra_cascade(s, u, 3, grid).per_order):
            reduced.clear()
            got = outputs(sys)
            assert False in reduced
            want = outputs(slow)
            assert np.all(np.isfinite(got))
            assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    def test_zero_mode_under_overflowing_run_map_powers_stays_zero(self, monkeypatch):
        # The same two modes under zero input: every step is one run, whose
        # map's powers overflow in the stiff mode from F^64 on, so the run is
        # stepped and that mode stays zero.
        fill, filled = response._fill, []

        def spy(*args):
            filled.append(fill(*args))
            return filled[-1]

        monkeypatch.setattr(response, "_fill", spy)
        sys = BilinearSystem(A=np.diag([-1e4, -1.0]), N=[np.diag([0.0, 0.5])],
                             B=[[0.0], [1.0]], C=[[1.0, 1.0]], x0=[0.0, 1.0])
        slow = BilinearSystem(A=[[-1.0]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]],
                              x0=[1.0])
        grid = TimeGrid(0.0, 3.0, 1e-2)
        u = zero_signal(grid)
        for outputs in (lambda s: ode_direct(s, u, grid).values,
                        lambda s: volterra_cascade(s, u, 3, grid).per_order):
            filled.clear()
            got = outputs(sys)
            assert False in filled
            want = outputs(slow)
            assert np.all(np.isfinite(got))
            assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("x0, projected", [(1e300, False), (1e100, True)])
    def test_overflow_in_a_projected_run_names_the_stepped_step(self, x0, projected,
                                                                monkeypatch):
        # A free run of A = 50 I whose map F ~ e^{0.05} has finite powers, but
        # whose state x0 e^{50 t} and its stage sums pass the largest double
        # mid-run: stepping names step 267 from 1e300 and step 9477 from
        # 1e100. Outputs filled over a projection never form the states, so
        # the bound on them must hand the run to the state fill before they
        # overflow, and the check there must name the step that stepping
        # names. With chunks of c = 1024 steps the bound is max |Y| e^{102}
        # 12 / h for Y a chunk's first state, x0 e^{51.2 j} for chunk j: from
        # 1e100 chunks 0..7 are projected and chunk 8 is refused, and from
        # 1e300 none is projected.
        project, written = response._project, []

        def spy(*args):
            done, Y = project(*args)
            written.append(done)
            return done, Y

        monkeypatch.setattr(response, "_project", spy)
        n = 8
        sys = BilinearSystem(A=50.0 * np.eye(n), N=np.zeros((1, n, n)), B=np.ones((n, 1)),
                             C=np.ones((1, n)) / n, x0=np.full(n, x0))
        grid = TimeGrid(0.0, 12.0, 1e-3)
        u = zero_signal(grid)
        runs = (lambda: ode_direct(sys, u, grid), lambda: volterra_cascade(sys, u, 3, grid))

        def messages():
            got = []
            for run in runs:
                with pytest.raises(FloatingPointError) as err:
                    run()
                got.append(str(err.value))
            return got

        got = messages()
        c = response._chunk(n, 1, 1, 1, grid.nodes - 1)
        assert written and max(written) % c == 0
        assert 0 < max(written) < 9477 if projected else max(written) == 0
        monkeypatch.setattr(response, "_mapped",
                            lambda sys, U, *args: np.full(len(U) - 1, response.STEP))
        assert got == messages()

    # Free runs of A = a I (n = 8, dt = 1e-3) whose projection is refused,
    # each at another place: the run map F itself is not finite (a = 1e80), a
    # power of it is not (a = 2000), the bound max |Y| grow 12 / h is not
    # though the powers are (a = 1300), the projected powers C F^j are not
    # (C = 1e300), and the last, partial chunk is refused after 17 full
    # chunks of 512 steps (x0 = 1e100, 8904 steps). The run falls back to the
    # state fill or to steps, so its outputs, or the step its overflow
    # names, are those of a run forced to steps.
    @pytest.mark.parametrize("a, c, x0, T", [
        (1e80, 0.125, 1.0, 3.0), (2000.0, 0.125, 1e-300, 3.0), (1300.0, 0.125, 1.0, 3.0),
        (50.0, 1e300, 1e-300, 3.0), (50.0, 0.125, 1e100, 8.904)])
    def test_refused_projection_matches_stepped_run(self, a, c, x0, T, monkeypatch):
        projection, project, refused = response._projection, response._project, []

        def projection_spy(*args):
            result = projection(*args)
            refused.append(result is None)
            return result

        def project_spy(Y, out, *args):
            done, Y = project(Y, out, *args)
            refused.append(done < out.shape[1])
            return done, Y

        monkeypatch.setattr(response, "_projection", projection_spy)
        monkeypatch.setattr(response, "_project", project_spy)
        n = 8
        sys = BilinearSystem(A=a * np.eye(n), N=np.zeros((1, n, n)), B=np.ones((n, 1)),
                             C=np.full((1, n), c), x0=np.full(n, x0))
        grid = TimeGrid(0.0, T, 1e-3)
        u = zero_signal(grid)

        def outcomes():
            got = []
            for run in (lambda: ode_direct(sys, u, grid).values,
                        lambda: volterra_cascade(sys, u, 3, grid).per_order):
                try:
                    got.append(run())
                except FloatingPointError as exc:
                    got.append(str(exc))
            return got

        got = outcomes()
        assert True in refused
        monkeypatch.setattr(response, "_mapped",
                            lambda sys, U, *args: np.full(len(U) - 1, response.STEP))
        for g, w in zip(got, outcomes()):
            if isinstance(w, str):
                assert g == w
            else:  # positive outputs, each step's rounding kept as they grow
                assert_allclose(g, w, rtol=2e-16 * grid.nodes)

    @pytest.mark.parametrize("n, K", [(16, None), (8, 4)])
    def test_reduced_stretches_hold_bounded_stacks(self, n, K, monkeypatch):
        # Just above the sizes where stepping wins, the maps of a whole block
        # would take 20 MB (n = 16) and 4.5 MB (n = 8, K = 4) of stacked
        # arrays; each stretch is cut to STACK doubles per array instead.
        # Every forced stretch is reduced here, whatever the cost model picks.
        import tracemalloc

        mapped, reduce_states, reduced = response._mapped, response._reduce, []

        def reduce_forced(*args):
            via = mapped(*args)
            via[via == response.STEP] = response.REDUCE
            return via

        def spy(*args):
            reduced.append(args[2].size)
            return reduce_states(*args)

        monkeypatch.setattr(response, "_mapped", reduce_forced)
        monkeypatch.setattr(response, "_reduce", spy)
        sys = make_stable_system(np.random.default_rng(n), n=n, m=2, with_x0=True)
        grid = TimeGrid(0.0, 10.0, 4e-3)
        u = sine_signal(grid, mu=[1.0, -0.5], omega=1.7)
        tracemalloc.start()
        try:
            if K is None:
                ode_direct(sys, u, grid)
            else:
                volterra_cascade(sys, u, K, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reduced and max(reduced) <= response.STACK
        assert peak < 4e6, peak

    @pytest.mark.parametrize("n", [20, 100])
    def test_run_with_every_state_an_output_fills_its_states(self, n, monkeypatch):
        # The pulse shape of the benchmark (eps = 1e-3, dt = eps / 20), cut to
        # 5000 steps. With C = I the projection would form each output as the
        # fill forms each state, in chunks of at most RUN_STACK // n^2 steps, so
        # the cost model must fill the states; with one output row it projects.
        project, projected = response._project, []

        def spy(*args):
            projected.append(args[1].shape)
            return project(*args)

        monkeypatch.setattr(response, "_project", spy)
        made = make_stable_system(np.random.default_rng(n), n=n, m=2, with_x0=True)
        grid = TimeGrid(0.0, 0.25, 1e-3 / 20)
        u = delta_eps_signal(grid, 1e-3, [1.0, 0.5])
        for C, expected in ((np.eye(n), False), (made.C, True)):
            sys = BilinearSystem(A=made.A, N=made.N, B=made.B, C=C, x0=made.x0)
            projected.clear()
            ode_direct(sys, u, grid)
            volterra_cascade(sys, u, 4, grid)
            assert bool(projected) == expected

    def test_zero_state_under_overflowing_run_map_stays_zero(self):
        # the step input of the forced case above without B: the run map's
        # powers overflow as the free map's do, and B u = 0 adds nothing, so
        # the zero state must stay exactly zero
        sys = BilinearSystem(A=[[-1e4]], N=[[[0.5]]], B=[[0.0]], C=[[1.0]])
        grid = TimeGrid(0.0, 3.0, 1e-2)
        assert grid.nodes == 301
        u = step_signal(grid)
        assert np.all(ode_direct(sys, u, grid).values == 0.0)
        assert np.all(volterra_cascade(sys, u, 3, grid).per_order == 0.0)

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
