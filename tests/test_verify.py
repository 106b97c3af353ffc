import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivolt import (BilinearSystem, TimeGrid, aux_output_2d, delta_eps_signal,
                    eps_sweep, eval_symmetric, eval_tf_regular, eval_tf_triangular,
                    impulse_response, laplace_quadrature, nascent_response,
                    phi1_apply, phi1_bounds_probe,
                    richardson_limit, sine_signal, step_signal, suggest_truncation,
                    symmetry_probe, zero_signal)
from bivolt import verify
from bivolt.verify import _symmetrised

from conftest import (make_stable_system, normal_system, overflowing_chain,
                      transient_growth_system)


def fresh_copy(sys):
    """The same system as a new instance, with nothing cached."""
    return BilinearSystem(A=sys.A, N=sys.N, B=sys.B, C=sys.C, x0=sys.x0)


def assert_same_estimate(got, want):
    assert np.array_equal(got.value, want.value)
    assert got.tail_bound == want.tail_bound
    assert got.discretization_estimate == want.discretization_estimate


def dense_path(monkeypatch):
    """Hide every system's eigenbasis, so that the quadrature takes its dense path."""
    monkeypatch.setattr(BilinearSystem, "_eigenbasis", property(lambda self: None))


def random_system(rng, n, normal):
    """m = 2, p = 2 system whose A = Q (D + U) Q^T has eigenvalues in [-2, -0.5].

    U = 0 gives a normal A; a strictly upper triangular U with entries up to 8
    gives a non-normal A whose ||e^{At}||_2 first grows.
    """
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    D = np.diag(-rng.uniform(0.5, 2.0, n))
    U = 0.0 if normal else np.triu(rng.uniform(-8.0, 8.0, (n, n)), 1)
    N = 0.4 * rng.standard_normal((2, n, n)) / np.sqrt(n)
    return BilinearSystem(A=Q @ (D + U) @ Q.T, N=N, B=rng.standard_normal((n, 2)),
                          C=rng.standard_normal((2, n)))


class TestLaplaceQuadrature:
    def test_scalar_order_two_regular(self, gain2_system):
        est = laplace_quadrature(gain2_system, [1, 1], "regular", [1.0, 2.0],
                                 T=30.0, panels=200)
        assert abs(est.value[0] - 1.0 / 3.0) <= 1e-6
        assert abs(est.value[0] - 1.0 / 3.0) <= est.tail_bound + est.discretization_estimate

    def test_scalar_order_two_triangular(self, gain2_system):
        est = laplace_quadrature(gain2_system, [1, 1], "triangular", [1.0, 2.0],
                                 T=30.0, panels=120)
        closed = eval_tf_triangular(gain2_system, [1, 1], [1.0, 2.0]).value[0]
        assert abs(est.value[0] - closed) <= est.tail_bound + est.discretization_estimate

    def test_order_one_matches_linear_tf(self):
        rng = np.random.default_rng(31)
        sys = make_stable_system(rng, n=4)
        s = [1.2 + 0.7j]
        est = laplace_quadrature(sys, [1], "regular", s, T=25.0, panels=80)
        closed = eval_tf_regular(sys, [1], s).value
        assert np.max(np.abs(est.value - closed)) <= est.tail_bound + est.discretization_estimate

    def test_zero_coupling_gives_zero(self):
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.0]]], B=[[1.0]], C=[[1.0]])
        est = laplace_quadrature(sys, [1, 1], "regular", [1.0, 2.0],
                                 T=20.0, panels=40)
        assert np.max(np.abs(est.value)) <= est.tail_bound + 1e-15

    def test_agreement_property_random_systems(self):
        rng = np.random.default_rng(77)
        for _ in range(6):
            sys = make_stable_system(rng, n=int(rng.integers(2, 5)),
                                     m=int(rng.integers(1, 3)))
            for k in (1, 2):
                s = rng.uniform(0.7, 2.0, k) + 1j * rng.uniform(-1.0, 1.0, k)
                chs = rng.integers(1, sys.m + 1, size=k)
                kind = "regular" if rng.random() < 0.5 else "triangular"
                est = laplace_quadrature(sys, chs, kind, s, T=28.0, panels=60)
                closed = (eval_tf_regular if kind == "regular"
                          else eval_tf_triangular)(sys, chs, s).value
                diff = float(np.max(np.abs(est.value - closed)))
                assert diff <= est.tail_bound + est.discretization_estimate

    def test_outside_region_refused(self, gain2_system):
        with pytest.raises(ValueError):
            laplace_quadrature(gain2_system, [1], "regular", [-2.0], 10.0, 20)

    def test_suggested_truncation_meets_tolerance(self):
        rng = np.random.default_rng(101)
        sys = make_stable_system(rng, n=3)
        s = [1.0 + 0.5j, 1.5]
        tol = 1e-8
        T = suggest_truncation(sys, [1, 1], "regular", s, tol)
        est = laplace_quadrature(sys, [1, 1], "regular", s, T=T, panels=50)
        assert est.tail_bound <= 5 * tol
        closed = eval_tf_regular(sys, [1, 1], s).value
        diff = float(np.max(np.abs(est.value - closed)))
        assert diff <= est.tail_bound + est.discretization_estimate

    def test_suggested_truncation_on_long_horizon(self):
        # margin 0.1 against an abscissa of -50: the growth is sampled up to
        # t = 80, where e^{50 t} alone is far past the largest double
        sys = BilinearSystem(A=[[-50.0]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]])
        T = suggest_truncation(sys, [1], "regular", [-49.9], 1e-6)
        est = laplace_quadrature(sys, [1], "regular", [-49.9], T, 64)
        assert est.tail_bound <= 1e-6
        assert abs(est.value[0] - 10.0) <= est.tail_bound + est.discretization_estimate

    def test_suggested_truncation_shrinks_with_looser_tolerance(self, gain2_system):
        tight = suggest_truncation(gain2_system, [1, 1], "regular",
                                   [1.0, 2.0], 1e-10)
        loose = suggest_truncation(gain2_system, [1, 1], "regular",
                                   [1.0, 2.0], 1e-4)
        assert loose < tight

    def test_order_cap(self, gain2_system):
        with pytest.raises(ValueError) as info:
            laplace_quadrature(gain2_system, [1] * 4, "regular", [1.0] * 4,
                               10.0, 10)
        # the axes factorize, so the cost is linear in k: no cost claim
        assert str(info.value) == (
            "laplace_quadrature supports kernel orders k <= 3, got k = 4")

    def test_symmetric_kind_refused(self, gain2_system):
        # the ROC check knows the symmetric kind; the quadrature does not
        with pytest.raises(ValueError, match="kind"):
            laplace_quadrature(gain2_system, [1, 1], "symmetric", [1.0, 2.0],
                               10.0, 10)

    @pytest.mark.parametrize("T, panels, name", [
        (math.nan, 10, "horizon T"), (math.inf, 10, "horizon T"),
        (-math.inf, 10, "horizon T"), (0.0, 10, "horizon T"),
        (10.0, 7.9, "panels"), (10.0, math.nan, "panels"), (10.0, 0, "panels"),
    ])
    def test_bad_horizon_or_panel_count_refused(self, gain2_system, T, panels, name):
        with pytest.raises(ValueError, match=name):
            laplace_quadrature(gain2_system, [1, 1], "regular", [1.0, 2.0], T, panels)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
    def test_suggest_truncation_refuses_bad_tolerance(self, gain2_system, tol):
        with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
            suggest_truncation(gain2_system, [1], "regular", [1.0], tol)
        with pytest.raises(ValueError, match="kind"):
            suggest_truncation(gain2_system, [1, 1], "symmetric", [1.0, 2.0],
                               1e-6)

    def test_unstable_system_inside_region_integrates(self):
        # e^{50 t} alone passes the largest double at t = 14.2; e^{(50 - 60) t}
        # does not, and the quadrature finds 1 / (60 - 50)
        sys = BilinearSystem(A=[[50.0]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]])
        est = laplace_quadrature(sys, [1], "regular", [60.0], 16.0, 64)
        gap = abs(est.value[0] - 0.1)
        assert gap <= est.tail_bound + est.discretization_estimate
        assert gap <= 1e-8

    def test_strongly_stable_system_keeps_finite_bound(self):
        # e^{50 t} overflows at t = 14.2, where e^{-50 t} itself has underflowed
        sys = BilinearSystem(A=[[-50.0]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]])
        est = laplace_quadrature(sys, [1], "regular", [1.0], 16.0, 32)
        gap = abs(est.value[0] - 1.0 / 51.0)
        assert math.isfinite(est.tail_bound)
        assert gap <= est.tail_bound + est.discretization_estimate

    def test_overflow_on_panel_step_raises(self):
        # every node exponential of panels 0..14 and the step e^{A w}, w = 1,
        # are finite; the products for panel 15 (t = 15.05 .. 15.95) are not
        A, B, C = overflowing_chain()
        sys = BilinearSystem(A=A, N=[np.eye(30)], B=B, C=C)
        with pytest.raises(FloatingPointError, match="not finite on panel 15"):
            laplace_quadrature(sys, [1], "regular", [1.0], 32.0, 32)

    @pytest.mark.parametrize("chs, kind, s", [
        ([1, 1], "triangular", [0.5 + 1.0j, 0.3 - 0.5j]),
        ([2, 1], "regular", [0.5 + 1.0j, 0.3 - 0.5j]),
        ([1, 1], "regular", [0.9, 0.4 + 2.0j]),
        ([2], "regular", [0.7 - 1.0j]),
        ([1, 2, 2], "triangular", [0.4, 0.6 + 0.5j, 1.1 - 1.5j]),
    ])
    def test_growth_memo_hit_matches_fresh_system(self, chs, kind, s):
        # the first call at (T, panels) = (12, 32) samples the growth (close to
        # 40 here) and stores it; the second reuses it for other arguments
        sys = transient_growth_system(m=2)
        laplace_quadrature(sys, [1, 1], "regular", [0.5 + 1.0j, 0.3 - 0.5j], 12.0, 32)
        got = laplace_quadrature(sys, chs, kind, s, 12.0, 32)
        assert_same_estimate(got, laplace_quadrature(fresh_copy(sys), chs, kind, s,
                                                     12.0, 32))

    @pytest.mark.parametrize("grid", [(9.0, 32), (12.0, 8)])
    def test_growth_memo_keyed_by_horizon_and_panels(self, grid):
        # the growth still rises at t = 12, so its samples at the last nodes
        # differ between grids, and a reused value would show in the tail bound
        sys = transient_growth_system()
        args = ([1, 1], "regular", [0.5 + 1.0j, 0.3 - 0.5j])
        first = laplace_quadrature(sys, *args, 12.0, 32)
        got = laplace_quadrature(sys, *args, *grid)
        assert got.tail_bound != first.tail_bound
        assert_same_estimate(got, laplace_quadrature(fresh_copy(sys), *args, *grid))

    def test_overflow_of_chain_vectors_on_memo_hit_raises(self):
        # the first call stores the growth (close to 40); channel 2's b is
        # 1e307, so e^{(A - alpha I) t} b passes the largest double on panel 3
        # while every matrix stays finite
        base = transient_growth_system(m=2)
        sys = BilinearSystem(A=base.A, N=base.N, B=base.B * [1.0, 1e307], C=base.C)
        s = [0.5 + 1.0j, 0.3 - 0.5j]
        laplace_quadrature(sys, [1, 1], "regular", s, 12.0, 32)
        assert list(sys._quadrature_growth) == [(12.0, 32)]
        for kind in ("regular", "triangular"):
            with pytest.raises(FloatingPointError, match="not finite on panel 3 of 32"):
                laplace_quadrature(sys, [2, 1], kind, s, 12.0, 32)

    def test_overflowing_chain_product_raises(self):
        # every panel vector is finite; C times the sum is not
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.5]]], B=[[10.0]], C=[[1e308]])
        with pytest.raises(FloatingPointError, match="chain product is not finite"):
            laplace_quadrature(sys, [1], "regular", [1.0], 12.0, 32)

    def test_overflowing_run_stores_no_growth(self):
        A, B, C = overflowing_chain()
        sys = BilinearSystem(A=A, N=[np.eye(30)], B=B, C=C)
        for _ in range(2):
            with pytest.raises(FloatingPointError, match="not finite on panel 15"):
                laplace_quadrature(sys, [1], "regular", [1.0], 32.0, 32)
            assert sys._quadrature_growth == {}

    @settings(derandomize=True, max_examples=24, deadline=None)
    @given(n=st.integers(1, 6), normal=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_bound_holds_on_every_call(self, n, normal, seed):
        # one grid per system, so every call after the first reuses the growth
        rng = np.random.default_rng(seed)
        sys = random_system(rng, n, normal)
        for kind, k in itertools.product(("regular", "triangular"), (1, 2, 3)):
            s = rng.uniform(0.2, 1.5, k) + 1j * rng.uniform(-2.0, 2.0, k)
            chs = rng.integers(1, 3, size=k)
            est = laplace_quadrature(sys, chs, kind, s, 16.0, 32)
            closed = (eval_tf_regular if kind == "regular"
                      else eval_tf_triangular)(sys, chs, s).value
            gap = float(np.max(np.abs(est.value - closed)))
            assert gap <= est.tail_bound + est.discretization_estimate


class TestModalQuadrature:
    """Where the system has an eigenbasis, the axis sums are V diag(g) V^{-1}
    over scalar exponentials; the growth is still sampled from the fine
    run's dense exponentials, on a memo miss only."""

    @pytest.fixture
    def expm_calls(self, monkeypatch):
        """The number of times of each expm call that verify makes."""
        seen, call = [], verify.expm

        def spy(M, t):
            seen.append(np.size(t))
            return call(M, t)

        monkeypatch.setattr(verify, "expm", spy)
        return seen

    @pytest.mark.parametrize("n", [4, 5, 100])
    def test_memo_hit_makes_no_expm_call(self, n, expm_calls):
        sys = normal_system(n, m=2, p=2)
        s = [0.5 + 1.0j, 0.3 - 0.5j]
        laplace_quadrature(sys, [1, 2], "regular", s, 12.0, 32)
        assert sys._eigenbasis is not None
        assert expm_calls == [6]  # the fine run's five nodes and step sample the growth
        for kind, panels in itertools.product(("regular", "triangular"), (3, 32)):
            if panels == 3:
                laplace_quadrature(sys, [1, 2], kind, s, 12.0, panels)
            expm_calls.clear()
            got = laplace_quadrature(sys, [2, 1], kind, s, 12.0, panels)
            assert expm_calls == []
            assert_same_estimate(got, laplace_quadrature(fresh_copy(sys), [2, 1], kind, s,
                                                         12.0, panels))

    @pytest.mark.parametrize("panels, calls", [(32, [6]), (3, [6, 6])])
    def test_memo_hit_without_eigenbasis_forms_the_exponentials(self, panels, calls,
                                                                  expm_calls):
        # an odd count's coarse run forms its own
        sys = transient_growth_system()
        assert sys._eigenbasis is None
        laplace_quadrature(sys, [1, 1], "regular", [0.5 + 1.0j, 0.3 - 0.5j], 12.0, panels)
        expm_calls.clear()
        laplace_quadrature(sys, [1, 1], "triangular", [0.5 + 1.0j, 0.3 - 0.5j], 12.0, panels)
        assert expm_calls == calls

    @pytest.mark.parametrize("s", [[1.0, 2.0], [0.5 + 1.0j, 0.3 - 0.5j]])
    @pytest.mark.parametrize("kind", ["regular", "triangular"])
    @pytest.mark.parametrize("n", [4, 5, 100])
    def test_matches_the_dense_path(self, n, kind, s, monkeypatch):
        # the growth comes from the same dense exponentials on both paths
        sys = normal_system(n, m=2, p=2)
        got = laplace_quadrature(sys, [1, 2], kind, s, 16.0, 32)
        dense_path(monkeypatch)
        want = laplace_quadrature(fresh_copy(sys), [1, 2], kind, s, 16.0, 32)
        assert got.tail_bound == want.tail_bound
        assert np.abs(got.value - want.value).max() <= 1e-13 * np.abs(want.value).max()
        assert got.discretization_estimate == pytest.approx(
            want.discretization_estimate, rel=0.0, abs=1e-13 * np.abs(want.value).max())

    @pytest.mark.parametrize("kind", ["regular", "triangular"])
    def test_real_frequencies_give_real_values(self, kind, monkeypatch):
        # V is complex where A has complex eigenvalues, so V diag(g) V^{-1} v
        # alone leaves an imaginary part at rounding level; the dense path
        # leaves none
        sys = normal_system(4, m=2, p=2)
        assert np.iscomplexobj(sys._eigenbasis.V)
        got = laplace_quadrature(sys, [1, 2], kind, [1.0, 2.0], 16.0, 32).value
        assert got.dtype == complex and not got.imag.any()
        dense_path(monkeypatch)
        want = laplace_quadrature(fresh_copy(sys), [1, 2], kind, [1.0, 2.0], 16.0, 32).value
        assert not want.imag.any()
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestAuxOutput2d:
    def test_zero_input(self, scalar_system):
        grid = TimeGrid(0.0, 1.0, 0.01)
        assert aux_output_2d(scalar_system, zero_signal(grid), "triangular",
                             1.0, 1.0) == 0.0

    def test_delta_limit_hits_adjusted_values(self, scalar_system):
        # delta-pulse sequence extrapolates onto the boundary 1/2 values
        expected = 0.25 * math.exp(-1.0)
        eps_list = [2e-2, 1e-2]
        for kind, probe in (("triangular", (1.0, 1.0)), ("regular", (0.0, 1.0))):
            vals = []
            for eps in eps_list:
                grid = TimeGrid(0.0, 2 * eps, eps / 20)
                pulse = delta_eps_signal(grid, eps)
                vals.append(aux_output_2d(scalar_system, pulse, kind, *probe,
                                          nodes=151))
            limit = richardson_limit(eps_list, vals)
            assert abs(limit - expected) <= 1e-3 * expected

    def test_matrix_siso_system(self):
        rng = np.random.default_rng(9)
        sys = make_stable_system(rng, n=3)
        eps = 1e-2
        grid = TimeGrid(0.0, 2 * eps, eps / 20)
        pulse = delta_eps_signal(grid, eps)
        got = aux_output_2d(sys, pulse, "triangular", 1.0, 1.0, nodes=151)
        from bivolt import eval_triangular
        expected = eval_triangular(sys, [1, 1], [1.0, 1.0])[0]
        assert got == pytest.approx(expected, rel=5e-2)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("signal", [step_signal, sine_signal])
    def test_regular_is_triangular_after_change_of_variables(self, signal, seed):
        # the regular kernel at (tau_1, tau_2) is the triangular one at
        # (tau_1 + tau_2, tau_2), so the outputs agree at (t1, t2) and (t1 + t2, t2)
        sys = make_stable_system(np.random.default_rng(seed), n=3)
        u = signal(TimeGrid(0.0, 2.0, 0.01))
        for t1, t2 in ((0.3, 0.9), (0.0, 1.0), (0.7, 0.4)):
            want = aux_output_2d(sys, u, "triangular", t1 + t2, t2)
            assert aux_output_2d(sys, u, "regular", t1, t2) == pytest.approx(
                want, rel=1e-12, abs=0.0)

    def test_rejects_mimo(self):
        rng = np.random.default_rng(1)
        sys = make_stable_system(rng, n=2, m=2)
        grid = TimeGrid(0.0, 1.0, 0.01)
        with pytest.raises(ValueError):
            aux_output_2d(sys, zero_signal(grid, 2), "triangular", 1.0, 1.0)


class TestEpsSweep:
    def test_scalar_ratios_near_two(self, scalar_system):
        report = eps_sweep(scalar_system, [1.0], [1e-2, 5e-3, 2.5e-3],
                           [0.5, 1.0, 2.0])
        assert np.all((report.ratios >= 1.5) & (report.ratios <= 2.5))
        assert 0.7 <= report.order <= 1.3

    def test_linear_system_still_first_order(self):
        # phi1(a eps) b differs from b at O(eps) even without coupling
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.0]]], B=[[1.0]], C=[[1.0]])
        report = eps_sweep(sys, [1.0], [1e-2, 5e-3], [1.0])
        assert report.errors[0] > 0
        assert report.ratios[0] == pytest.approx(2.0, abs=0.2)

    def test_overflowing_pulse_raises_overflow(self, scalar_system):
        # N / eps overflows at eps = 1e-310, with no RuntimeWarning on the way
        with pytest.raises(FloatingPointError, match=r"\|\|M\|\|_1 is not finite"):
            eps_sweep(scalar_system, [1.0], [1e-2, 1e-310], [1.0])

    def test_single_eps_has_no_ratios(self, scalar_system):
        report = eps_sweep(scalar_system, [1.0], [1e-2], [1.0])
        assert report.ratios.size == 0
        assert report.order is None

    def test_fitted_order_on_random_four_state_system(self):
        rng = np.random.default_rng(45)
        sys = make_stable_system(rng, n=4, m=2, p=2, with_x0=True)
        report = eps_sweep(sys, [1.0, -0.5], [2e-2, 1e-2, 5e-3], [0.5, 1.5])
        assert 0.7 <= report.order <= 1.3

    def test_errors_equal_separate_calls(self):
        # eps_sweep shares each state across probe times; the values stay those of the calls
        rng = np.random.default_rng(45)
        sys = make_stable_system(rng, n=4, m=2, p=2, with_x0=True)
        mu, eps, probes = [1.0, -0.5], [2e-2, 1e-2, 5e-3], [0.5, 1.5]
        want = [max(float(np.max(np.abs(nascent_response(sys, mu, e, t)
                                         - impulse_response(sys, mu, t)))) for t in probes)
                for e in eps]
        assert np.array_equal(eps_sweep(sys, mu, eps, probes).errors, want)

    @pytest.mark.parametrize("mu, change", [(0.0, {}), (1.0, dict(C=[[0.0]])),
                                            (0.0, dict(x0=[1.0])), (1.0, dict(A=[[0.0]]))])
    def test_identically_zero_errors_refused(self, scalar_system, mu, change):
        # a zero response, a free one that the pulse leaves as it is, or one
        # without free dynamics: every error would be 0 up to rounding, and
        # their ratios 0 / 0 or 1e-16 / 0
        sys = dataclasses.replace(scalar_system, **change)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="identically zero"):
                eps_sweep(sys, [mu], [1e-2, 5e-3], [0.5, 1.0])

    def test_pulse_through_n_alone_still_sweeps(self, scalar_system):
        # B mu = 0, but N mu moves the initial state during the pulse
        sys = dataclasses.replace(scalar_system, B=[[0.0]], x0=[1.0])
        report = eps_sweep(sys, [1.0], [1e-2, 5e-3], [0.5, 1.0])
        assert report.ratios[0] == pytest.approx(2.0, abs=0.2)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_eps_or_probe_refused(self, scalar_system, bad):
        with pytest.raises(ValueError, match="finite"):
            eps_sweep(scalar_system, [1.0], [1e-2], [1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            eps_sweep(scalar_system, [1.0], [bad], [1.0])

    def test_input_validation(self, scalar_system):
        with pytest.raises(ValueError):
            eps_sweep(scalar_system, [1.0], [], [1.0])
        with pytest.raises(ValueError):
            eps_sweep(scalar_system, [1.0], [1e-3, 1e-2], [1.0])
        with pytest.raises(ValueError):
            eps_sweep(scalar_system, [1.0], [1e-2], [5e-3])


class TestProbes:
    def test_symmetry_deviation_tiny(self):
        rng = np.random.default_rng(15)
        sys = make_stable_system(rng, n=3, m=2, p=2)
        assert symmetry_probe(sys, 3, 40, seed=2) <= 1e-12

    @pytest.mark.parametrize("chs, ts", [
        ([2, 2], [0.9, 0.9]),
        ([1, 1, 1], [0.8, 0.8, 0.8]),
        ([2, 2, 1], [1.1, 1.1, 0.4]),
        ([1, 2, 2], [0.4, 1.1, 1.1]),
        ([2, 1, 2, 2], [1.2, 0.3, 1.2, 1.2]),
        ([1, 1, 1, 1], [0.7, 0.7, 0.7, 0.7]),
    ])
    def test_symmetrisation_at_tied_times(self, chs, ts):
        # one group of r tied times with one channel: r! permutations land on
        # the simplex face, each scaled by the boundary factor 1/r!
        rng = np.random.default_rng(15)
        sys = make_stable_system(rng, n=3, m=2, p=2)
        want = _symmetrised(sys, np.array(chs), np.array(ts))
        got = eval_symmetric(sys, chs, ts)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_symmetry_order_cap(self, scalar_system):
        with pytest.raises(ValueError):
            symmetry_probe(scalar_system, 7, 10)

    def test_phi1_bounds_no_violations(self):
        assert phi1_bounds_probe(2000, (-5.0, 5.0), seed=0) == 0

    @pytest.mark.parametrize("samples", [0, -5])
    def test_probes_refuse_no_samples(self, scalar_system, samples):
        with pytest.raises(ValueError, match="at least one sample"):
            phi1_bounds_probe(samples)
        with pytest.raises(ValueError, match="at least one sample"):
            symmetry_probe(scalar_system, 2, samples)

    def test_phi1_value_inside_band(self):
        val = float(phi1_apply([[1.0]], [1.0])[0])
        assert val == pytest.approx(math.e - 1.0, rel=1e-12)
        assert 1.0 <= val <= math.e


class TestRichardson:
    def test_exact_on_linear_data(self):
        eps = [4e-2, 1e-2]
        vals = [1.0 + 3.0 * e for e in eps]
        assert richardson_limit(eps, vals) == pytest.approx(1.0, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            richardson_limit([1e-2], [1.0])
