import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bivolt.linalg import (PoleHitError, SingularMatrixError, expm, phi1_apply,
                           resolvent_apply, solve)


def series_phi1(x, terms=40):
    """Truncated series sum_{k>=1} x^{k-1}/k!, the scalar phi1 oracle."""
    acc, power = 0.0, 1.0
    for k in range(1, terms + 1):
        acc += power / math.factorial(k)
        power *= x
    return acc


class TestExpm:
    def test_zero_time_is_identity(self):
        M = np.array([[3.0, -2.0], [1.0, 4.0]])
        assert_allclose(expm(M, 0.0), np.eye(2), atol=1e-15)

    def test_nilpotent_series_terminates(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert_allclose(expm(M, 1.0), [[1.0, 1.0], [0.0, 1.0]], rtol=1e-14)

    def test_diagonal(self):
        got = expm(np.diag([-1.0, 2.0]), 0.5)
        assert_allclose(np.diag(got), np.exp([-0.5, 1.0]), rtol=1e-13)
        assert_allclose(got - np.diag(np.diag(got)), 0.0, atol=1e-15)

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = rng.integers(2, 7)
            M = rng.standard_normal((n, n))
            M -= (np.max(np.linalg.eigvals(M).real)
                  + rng.uniform(0.2, 1.0)) * np.eye(n)
            radius = max(abs(np.linalg.eigvals(M)))
            if radius > 5.0:
                M *= 5.0 / radius
            t, s = rng.uniform(0.0, 10.0, size=2)
            left = expm(M, t + s)
            right = expm(M, t) @ expm(M, s)
            assert np.linalg.norm(left - right) <= 1e-10 * np.linalg.norm(left)

    def test_semigroup_mixed_signs(self):
        # opposite-sign factors cancel, so keep norms modest for the product
        # to stay well-conditioned at the 1e-10 tolerance
        rng = np.random.default_rng(13)
        for _ in range(15):
            n = rng.integers(2, 5)
            M = 0.5 * rng.standard_normal((n, n))
            t, s = rng.uniform(-2.0, 2.0, size=2)
            left = expm(M, t + s)
            right = expm(M, t) @ expm(M, s)
            assert np.linalg.norm(left - right) <= 1e-10 * np.linalg.norm(left)

    def test_large_scaled_argument(self):
        # relative accuracy survives heavy squaring (||Mt|| ~ 1e3)
        got = expm(np.array([[-1000.0]]), 1.0)[0, 0]
        assert got == pytest.approx(math.exp(-1000.0), rel=1e-12)
        got = expm(np.array([[0.0, 200.0], [0.0, 0.0]]), 1.0)
        assert_allclose(got, [[1.0, 200.0], [0.0, 1.0]], rtol=1e-12)

    def test_overflow_raises(self):
        # e^710 is beyond the largest double; the squarings overflow
        with pytest.raises(FloatingPointError, match="expm overflow"):
            expm(np.array([[710.0]]))
        with pytest.raises(FloatingPointError, match="expm overflow"):
            phi1_apply(np.array([[1e6]]), np.array([1.0]))
        assert expm(np.array([[700.0]]))[0, 0] == pytest.approx(
            math.exp(700.0), rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            expm(np.ones((2, 3)))
        with pytest.raises(ValueError):
            expm(np.array([[np.nan]]))
        with pytest.raises(ValueError):
            expm(np.eye(2), np.inf)


class TestPhi1:
    def test_zero_matrix_gives_vector(self):
        v = np.array([3.0, -4.0])
        assert_allclose(phi1_apply(np.zeros((2, 2)), v), v, rtol=1e-14)

    def test_scalar_matches_series_oracle(self):
        got = phi1_apply([[0.5]], [1.0])[0]
        assert got == pytest.approx(1.2974425414002562, abs=1e-13)
        assert got == pytest.approx(series_phi1(0.5), abs=1e-13)

    @pytest.mark.parametrize("n", [-2.0, 2.0])
    def test_scalar_between_limit_cases(self, n):
        got = phi1_apply([[n]], [1.0])[0]
        lo, hi = min(1.0, math.exp(n)), max(1.0, math.exp(n))
        assert lo - 1e-12 <= got <= hi + 1e-12

    def test_consistency_with_expm(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(1, 7)
            M = rng.standard_normal((n, n))
            v = rng.standard_normal(n)
            lhs = M @ phi1_apply(M, v)
            rhs = (expm(M) - np.eye(n)) @ v
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(v)

    def test_singular_matrix_supported(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        # phi1(M) = I + M/2 for nilpotent M of index 2
        assert_allclose(phi1_apply(M, np.array([1.0, 1.0])), [1.5, 1.0], rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            phi1_apply(np.eye(2), np.ones(3))


class TestResolvent:
    def test_nilpotent_example(self):
        got = resolvent_apply([[0.0, 1.0], [0.0, 0.0]], 1.0, [0.0, 1.0])
        assert_allclose(got, [1.0, 1.0], rtol=1e-13)

    def test_zero_matrix_is_division(self):
        v = np.array([2.0, -6.0])
        assert_allclose(resolvent_apply(np.zeros((2, 2)), 2.0, v), v / 2.0,
                        rtol=1e-14)

    def test_scalar(self):
        got = resolvent_apply([[-1.0]], 1.0 + 0.0j, [1.0])
        assert got[0] == pytest.approx(0.5, abs=1e-14)

    def test_residual_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = rng.integers(2, 9)
            A = rng.standard_normal((n, n))
            s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            V = rng.standard_normal(n)
            X = resolvent_apply(A, s, V)
            residual = (s * np.eye(n) - A) @ X - V
            assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(V)

    def test_pole_hit_carries_frequency(self):
        with pytest.raises(PoleHitError) as exc:
            resolvent_apply([[-1.0]], -1.0, [1.0])
        assert exc.value.s == -1.0 + 0.0j

    @pytest.mark.parametrize("d", [0.0, 1e-15, 1e-13])
    def test_pole_hit_next_to_eigenvalue_of_non_normal_matrix(self, d):
        # a plain LAPACK solve returns a finite answer at d = 1e-15 and 1e-13
        A = [[-1.0, 5.0, 0.0], [0.0, -2.0, 3.0], [0.0, 0.0, -0.5]]
        with pytest.raises(PoleHitError):
            resolvent_apply(A, -2.0 + d, [1.0, 1.0, 1.0])


class TestLU:
    def test_solve_matches_numpy(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 6))
        B = rng.standard_normal((6, 3))
        assert_allclose(solve(A, B), np.linalg.solve(A, B), rtol=1e-10)

    def test_singular_detection(self):
        with pytest.raises(SingularMatrixError):
            solve(np.zeros((3, 3)), np.ones(3))
        with pytest.raises(SingularMatrixError):
            solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))

    def test_small_pivot_detected_when_inverse_row_is_spread(self):
        # The partial pivot of the first column is eps <= 1e-12 * ||K||_inf.
        # K^{-1} has the row (1, 1, 1) / (3 eps), so ||K||_1 ||K^{-1}||_1
        # stays near 8.9e11 while ||K||_inf ||K^{-1}||_inf is 1.3e12.
        eps = 1.5e-12
        K = np.array([[eps, 1.0, 1.0], [eps, -1.0, 1.0], [eps, 0.0, -2.0]])
        with pytest.raises(SingularMatrixError):
            solve(K, np.ones(3))

    def test_complex_solve(self):
        A = np.array([[2.0, 1.0], [0.0, 1.0j]], dtype=complex)
        b = np.array([1.0, 2.0], dtype=complex)
        assert_allclose(A @ solve(A, b), b, atol=1e-13)
