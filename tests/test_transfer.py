import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bivolt import (BilinearSystem, PoleHitError, eval_tf_regular,
                    eval_tf_symmetric, eval_tf_triangular, output_transform,
                    resolvent_apply, roc_margin)

from conftest import make_stable_system


class TestRegularTF:
    def test_scalar_example(self, gain2_system):
        got = eval_tf_regular(gain2_system, [1, 1], [1.0, 2.0]).value[0]
        assert got == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_order_one_is_linear_tf(self):
        rng = np.random.default_rng(2)
        sys = make_stable_system(rng, n=4, m=2, p=2)
        s = 0.3 + 1.2j
        got = eval_tf_regular(sys, [2], [s]).value
        expected = sys.C @ resolvent_apply(sys.A, s, sys.B[:, 1])
        assert_allclose(got, expected, rtol=1e-12)

    def test_zero_coupling_annihilates(self):
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.0]]], B=[[1.0]], C=[[1.0]])
        got = eval_tf_regular(sys, [1, 1], [1.0, 2.0]).value
        assert np.all(got == 0.0)

    def test_pole_hit_reports_frequency(self, gain2_system):
        with pytest.raises(PoleHitError) as exc:
            eval_tf_regular(gain2_system, [1, 1], [-1.0, 2.0])
        assert exc.value.s == -1.0 + 0.0j


class TestTriangularTF:
    def test_scalar_example(self, gain2_system):
        got = eval_tf_triangular(gain2_system, [1, 1], [1.0, 2.0]).value[0]
        assert got == pytest.approx(0.25, rel=1e-12)

    def test_order_one_matches_regular(self, gain2_system):
        s = [0.7 + 0.4j]
        tri = eval_tf_triangular(gain2_system, [1], s).value
        reg = eval_tf_regular(gain2_system, [1], s).value
        assert_allclose(tri, reg, rtol=1e-14)

    def test_substitution_identity(self):
        # tri(s) = reg(partial sums of s)
        rng = np.random.default_rng(4)
        for _ in range(50):
            sys = make_stable_system(rng, n=int(rng.integers(1, 6)),
                                     m=int(rng.integers(1, 3)))
            k = int(rng.integers(1, 5))
            s = rng.uniform(0.2, 2.0, k) + 1j * rng.uniform(-3.0, 3.0, k)
            chs = rng.integers(1, sys.m + 1, size=k)
            tri = eval_tf_triangular(sys, chs, s).value
            sigma = np.cumsum(s)
            reg = eval_tf_regular(sys, chs, sigma).value
            scale = max(np.max(np.abs(tri)), 1e-12)
            assert np.max(np.abs(tri - reg)) <= 1e-10 * scale

    def test_pole_hit_on_partial_sum(self, gain2_system):
        # partial sums (2, -1); the second hits the eigenvalue at -1
        with pytest.raises(PoleHitError) as exc:
            eval_tf_triangular(gain2_system, [1, 1], [2.0, -3.0])
        assert exc.value.s == pytest.approx(-1.0 + 0.0j)

    def test_mimo_operator_order(self):
        # b_{j1} enters at s_1, N_{jk} sits next to the outermost resolvent
        rng = np.random.default_rng(44)
        sys = make_stable_system(rng, n=3, m=3, p=2)
        s = np.array([0.8 + 0.2j, 1.1 - 0.4j, 0.6])
        j1, j2, j3 = 3, 1, 2
        sigma = np.cumsum(s)
        def rsv(z, v):
            return np.linalg.solve(z * np.eye(3) - sys.A, v)
        expected = sys.C @ rsv(sigma[2], sys.N[j3 - 1] @ rsv(
            sigma[1], sys.N[j2 - 1] @ rsv(sigma[0],
                                          sys.B[:, j1 - 1].astype(complex))))
        got = eval_tf_triangular(sys, [j1, j2, j3], s).value
        assert_allclose(got, expected, rtol=1e-11)


class TestSymmetricTF:
    def test_two_permutation_average(self, gain2_system):
        got = eval_tf_symmetric(gain2_system, [1, 1], [1.0, 2.0]).value[0]
        assert got == pytest.approx(0.5 * (0.25 + 1.0 / 6.0), rel=1e-12)

    def test_swap_invariance(self, gain2_system):
        a = eval_tf_symmetric(gain2_system, [1, 1], [1.0 + 2.0j, 0.5]).value
        b = eval_tf_symmetric(gain2_system, [1, 1], [0.5, 1.0 + 2.0j]).value
        assert_allclose(a, b, rtol=1e-14)

    def test_order_one(self, gain2_system):
        s = [1.5 - 0.3j]
        sym = eval_tf_symmetric(gain2_system, [1], s).value
        reg = eval_tf_regular(gain2_system, [1], s).value
        assert_allclose(sym, reg, rtol=1e-14)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_explicit_permutation_enumeration(self, k):
        rng = np.random.default_rng(k)
        sys = make_stable_system(rng, n=3, m=2)
        s = rng.uniform(0.3, 1.5, k) + 1j * rng.uniform(-1.0, 1.0, k)
        chs = rng.integers(1, 3, size=k)
        got = eval_tf_symmetric(sys, chs, s).value
        acc = np.zeros(sys.p, dtype=complex)
        for perm in itertools.permutations(range(k)):
            acc += eval_tf_triangular(sys, [chs[i] for i in perm],
                                      [s[i] for i in perm]).value
        assert_allclose(got, acc / math.factorial(k), rtol=1e-12)

    def test_permutation_cap(self, gain2_system):
        with pytest.raises(ValueError):
            eval_tf_symmetric(gain2_system, [1] * 9, [1.0] * 9)


class TestRocMargin:
    def test_regular_example(self):
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]])
        assert roc_margin(sys, [1.0, 2.0], "regular") == pytest.approx(2.0)

    def test_triangular_example(self):
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]])
        assert roc_margin(sys, [1.0, -1.5], "triangular") == pytest.approx(0.5)

    def test_boundary_margin_zero(self):
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]])
        assert roc_margin(sys, [-1.0], "regular") == pytest.approx(0.0, abs=1e-14)


class TestOutputTransform:
    def test_unit_impulse_returns_transfer_value(self, gain2_system):
        s = [1.0, 2.0]
        got = output_transform(gain2_system, [1, 1], s, "regular",
                               lambda s: 1.0)
        assert_allclose(got, eval_tf_regular(gain2_system, [1, 1], s).value,
                        rtol=1e-14)

    def test_step_input_order_one(self, gain2_system):
        got = output_transform(gain2_system, [1], [2.0], "triangular",
                               lambda s: 1.0 / s)
        expected = eval_tf_triangular(gain2_system, [1], [2.0]).value / 2.0
        assert_allclose(got, expected, rtol=1e-14)

    def test_regular_shifted_inputs(self, gain2_system):
        got = output_transform(gain2_system, [1, 1], [1.0, 2.0], "regular",
                               lambda s: 1.0 / (s + 3.0))
        assert got[0] == pytest.approx(1.0 / 48.0, rel=1e-12)

    def test_triangular_unshifted_inputs(self, gain2_system):
        U = lambda s: 1.0 / (s + 1.0)
        got = output_transform(gain2_system, [1, 1], [1.0, 2.0], "triangular", U)
        expected = 0.25 * U(1.0) * U(2.0)
        assert got[0] == pytest.approx(expected, rel=1e-12)

    def test_per_channel_evaluators(self):
        rng = np.random.default_rng(6)
        sys = make_stable_system(rng, n=3, m=2)
        evaluators = [lambda s: 1.0 / (s + 1.0), lambda s: 1.0 / (s + 2.0)]
        got = output_transform(sys, [2, 1], [1.0, 2.5], "regular", evaluators)
        tv = eval_tf_regular(sys, [2, 1], [1.0, 2.5]).value
        expected = tv * evaluators[1](1.0) * evaluators[0](2.5 - 1.0)
        assert_allclose(got, expected, rtol=1e-13)

    def test_symmetric_kind_uses_plain_input_factors(self, gain2_system):
        U = lambda s: 1.0 / (s + 2.0)
        got = output_transform(gain2_system, [1, 1], [1.0, 2.0], "symmetric", U)
        tv = eval_tf_symmetric(gain2_system, [1, 1], [1.0, 2.0]).value
        assert_allclose(got, tv * U(1.0) * U(2.0), rtol=1e-13)
