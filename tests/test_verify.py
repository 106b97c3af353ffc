import math

import numpy as np
import pytest

from bivolt import (BilinearSystem, TimeGrid, aux_output_2d, delta_eps_signal,
                    eps_sweep, eval_tf_regular, eval_tf_triangular,
                    laplace_quadrature, phi1_apply, phi1_bounds_probe,
                    richardson_limit, suggest_truncation, symmetry_probe,
                    zero_signal)

from conftest import make_stable_system


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

    def test_suggested_truncation_shrinks_with_looser_tolerance(self, gain2_system):
        tight = suggest_truncation(gain2_system, [1, 1], "regular",
                                   [1.0, 2.0], 1e-10)
        loose = suggest_truncation(gain2_system, [1, 1], "regular",
                                   [1.0, 2.0], 1e-4)
        assert loose < tight

    def test_order_cap(self, gain2_system):
        with pytest.raises(ValueError):
            laplace_quadrature(gain2_system, [1] * 4, "regular", [1.0] * 4,
                               10.0, 10)

    def test_symmetric_kind_refused(self, gain2_system):
        # the ROC check knows the symmetric kind; the quadrature does not
        with pytest.raises(ValueError, match="kind"):
            laplace_quadrature(gain2_system, [1, 1], "symmetric", [1.0, 2.0],
                               10.0, 10)
        with pytest.raises(ValueError, match="kind"):
            suggest_truncation(gain2_system, [1, 1], "symmetric", [1.0, 2.0],
                               1e-6)


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

    def test_single_eps_has_no_ratios(self, scalar_system):
        report = eps_sweep(scalar_system, [1.0], [1e-2], [1.0])
        assert report.ratios.size == 0
        assert report.order is None

    def test_fitted_order_on_random_four_state_system(self):
        rng = np.random.default_rng(45)
        sys = make_stable_system(rng, n=4, m=2, p=2, with_x0=True)
        report = eps_sweep(sys, [1.0, -0.5], [2e-2, 1e-2, 5e-3], [0.5, 1.5])
        assert 0.7 <= report.order <= 1.3

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

    def test_symmetry_order_cap(self, scalar_system):
        with pytest.raises(ValueError):
            symmetry_probe(scalar_system, 7, 10)

    def test_phi1_bounds_no_violations(self):
        assert phi1_bounds_probe(2000, (-5.0, 5.0), seed=0) == 0

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
