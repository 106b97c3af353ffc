import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bivolt import linalg
from bivolt.linalg import (_TAYLOR_THETA, _THETA13, PIVOT_RTOL, PoleHitError,
                           SingularMatrixError, _affine_flow, _dense, _logarithmic_norm,
                           _solver, _taylor, _taylor_plan, expm, phi1_apply,
                           resolvent_apply, solve)

from conftest import make_stable_system, normal_system, transient_growth_system


def series_phi1(x, terms=40):
    """Truncated series sum_{k>=1} x^{k-1}/k!, the scalar phi1 oracle."""
    acc, power = 0.0, 1.0
    for k in range(1, terms + 1):
        acc += power / math.factorial(k)
        power *= x
    return acc


class TestExpm:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(3)
        for n in range(1, 21):
            M = rng.standard_normal((n, n))
            assert np.array_equal(expm(M, 0.0), np.eye(n))

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

    def test_overflowing_argument_raises(self):
        # M t, or its 1-norm, overflows before any squaring
        with pytest.raises(FloatingPointError, match="expm overflow"):
            expm(np.array([[1e308]]), 10.0)
        with pytest.raises(FloatingPointError, match="expm overflow"):
            expm(np.array([[1e308, 0.0], [1e308, 0.0]]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            expm(np.ones((2, 3)))
        with pytest.raises(ValueError):
            expm(np.array([[np.nan]]))
        with pytest.raises(ValueError):
            expm(np.eye(2), np.inf)


class TestStackedExpm:
    """A stack is bit-identical, entry by entry, to the scalar calls."""

    # n = 100 takes the path that forms a large stack one matrix at a time
    @pytest.mark.parametrize("n, dtype", [(4, float), (4, complex), (100, float)])
    def test_times_match_scalar_calls(self, n, dtype):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((n, n)).astype(dtype)
        if dtype is complex:
            A += 1j * rng.standard_normal((n, n))
        A /= np.linalg.norm(A, 1)
        # ||A t||_1 = |t|: no squaring up to _THETA13, then one to six
        ts = np.array([2.0, 0.0, -0.3, 5.0, 6.0, 11.0, -40.0, 300.0, 0.0, 1e-3])
        got = expm(A, ts)
        assert got.shape == (ts.size, n, n) and got.dtype == dtype
        for t, E in zip(ts, got):
            assert np.array_equal(E, expm(A, t))
        assert np.array_equal(got[1], np.eye(n))

    def test_matrices_match_scalar_calls(self):
        rng = np.random.default_rng(22)
        Ms = rng.standard_normal((2, 3, 3, 3)) * np.array([0.1, 3.0, 40.0])[:, None, None]
        got = expm(Ms, 0.7)
        assert got.shape == Ms.shape
        for idx in np.ndindex(2, 3):
            assert np.array_equal(got[idx], expm(Ms[idx], 0.7))
        # matrix and time stacks broadcast against each other
        ts = np.array([0.5, 0.0, 2.0])
        got = expm(Ms, ts)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(got[idx], expm(Ms[idx], ts[idx[1]]))

    def test_empty_stacks(self):
        assert expm(np.eye(3), []).shape == (0, 3, 3)
        assert expm(np.eye(100), []).shape == (0, 100, 100)
        assert expm(np.zeros((2, 0, 0)), 1.0).shape == (2, 0, 0)

    def test_stacked_overflow_names_time(self):
        with pytest.raises(FloatingPointError, match=r"t = 800\.0 at stack index 2"):
            expm(np.array([[1.0]]), [1.0, 700.0, 800.0, 900.0])
        with pytest.raises(FloatingPointError, match=r"t = 10\.0 at stack index 1"):
            expm(np.array([[1e308]]), [1.0, 10.0])
        with pytest.raises(FloatingPointError, match=r"t = 800\.0 at stack index 1"):
            expm(np.eye(100), [1.0, 800.0])

    def test_stacked_bad_time(self):
        with pytest.raises(ValueError, match="finite"):
            expm(np.eye(2), [1.0, np.nan])


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


class TestAffineFlow:
    """e^M x0 + phi1(M) b against closed forms that need neither scipy nor mpmath."""

    @pytest.mark.parametrize("m", [-3.0, -0.5, 0.0, 1e-9, 0.7, 2.0])
    def test_scalar_closed_form(self, m):
        for x0, b in [(1.0, 0.0), (0.0, 1.0), (-2.5, 4.0)]:
            got = _affine_flow(np.array([[m]]), np.array([b]), np.array([x0]))[0]
            # (e^m - 1)/m, with its m -> 0 limit 1
            phi = math.expm1(m) / m if m else 1.0
            assert got == pytest.approx(math.exp(m) * x0 + phi * b, rel=1e-14, abs=1e-15)

    def test_nilpotent_series_terminates(self):
        rng = np.random.default_rng(4)
        M = np.triu(rng.standard_normal((3, 3)), 1)  # M^3 = 0
        x0, b = rng.standard_normal(3), rng.standard_normal(3)
        M2 = M @ M
        expected = x0 + M @ x0 + M2 @ x0 / 2 + b + M @ b / 2 + M2 @ b / 6
        assert_allclose(_affine_flow(M, b, x0), expected, rtol=1e-14, atol=1e-15)

    def test_singular_matrix_with_initial_state(self):
        # rank one M = u v^T with v^T u = lam: M^k = lam^(k-1) M, so
        # e^M = I + phi1(lam) M and phi1(M) = I + phi2(lam) M
        rng = np.random.default_rng(8)
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        M = np.outer(u, v)
        lam = float(v @ u)
        phi1 = math.expm1(lam) / lam
        phi2 = (math.expm1(lam) - lam) / lam**2
        x0, b = rng.standard_normal(4), rng.standard_normal(4)
        expected = x0 + phi1 * (M @ x0) + b + phi2 * (M @ b)
        assert_allclose(_affine_flow(M, b, x0), expected, rtol=1e-13)


def one_norm(M):
    return float(np.abs(M).sum(axis=0).max())


class TestAffineFlowPaths:
    """The Taylor and the dense path of _affine_flow, with b far larger than M."""

    @pytest.mark.parametrize("m", [0.5, 2.0])
    @pytest.mark.parametrize("b", [1e8, 1e10])
    def test_scalar_with_large_b(self, m, b):
        assert (_taylor_plan(m, 1) is None) == (m > 1)  # 0.5 Taylor, 2.0 dense
        got = _affine_flow(np.array([[m]]), np.array([b]), np.array([1.0]))[0]
        assert got == pytest.approx(math.exp(m) + math.expm1(m) / m * b, rel=1e-14)

    @pytest.mark.parametrize("norm", [0.7, 4.0])
    def test_nilpotent_with_large_b(self, norm):
        rng = np.random.default_rng(4)
        M = np.triu(rng.standard_normal((3, 3)), 1)  # M^3 = 0
        M *= norm / one_norm(M)
        assert (_taylor_plan(one_norm(M), 3) is None) == (norm > 1)
        x0, b = rng.standard_normal(3), 1e8 * rng.standard_normal(3)
        M2 = M @ M
        expected = x0 + M @ x0 + M2 @ x0 / 2 + b + M @ b / 2 + M2 @ b / 6
        got = _affine_flow(M, b, x0)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("norm", [0.7, 4.0])
    def test_rank_one_with_large_b(self, norm):
        # M = u v^T: e^M = I + phi1(lam) M and phi1(M) = I + phi2(lam) M, lam = v^T u
        rng = np.random.default_rng(8)
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        M = np.outer(u, v)
        M *= norm / one_norm(M)
        assert (_taylor_plan(one_norm(M), 4) is None) == (norm > 1)
        lam = float(np.trace(M))
        phi1 = math.expm1(lam) / lam
        phi2 = (math.expm1(lam) - lam) / lam**2
        x0, b = rng.standard_normal(4), 1e8 * rng.standard_normal(4)
        expected = x0 + phi1 * (M @ x0) + b + phi2 * (M @ b)
        got = _affine_flow(M, b, x0)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [4, 20, 100])
    def test_paths_agree_at_the_switch(self, n):
        # the largest 1-norm that takes the Taylor path, by bisection
        lo, hi = 0.5, 64.0
        assert _taylor_plan(lo, n) is not None and _taylor_plan(hi, n) is None
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _taylor_plan(mid, n) else (lo, mid)
        rng = np.random.default_rng(n)
        M0 = rng.standard_normal((n, n))
        b, x0 = rng.standard_normal(n), rng.standard_normal(n)
        for norm in (lo * (1 - 1e-12), hi * (1 + 1e-12)):
            M = M0 * (norm / one_norm(M0))
            nrm = one_norm(M)
            s = math.ceil(nrm)
            taylor = _taylor(M, b, x0, s, np.searchsorted(_TAYLOR_THETA, nrm / s))
            dense = _dense(M, b, x0, nrm)
            assert np.array_equal(_affine_flow(M, b, x0),
                                  taylor if _taylor_plan(nrm, n) else dense)
            assert np.max(np.abs(taylor - dense)) <= 1e-14 * np.max(np.abs(dense))

    def test_overflow_raises_on_both_paths(self):
        assert _taylor_plan(0.5, 1) is not None and _taylor_plan(1e6, 1) is None
        with pytest.raises(FloatingPointError, match="expm overflow"):
            phi1_apply([[0.5]], [1.5e308])
        with pytest.raises(FloatingPointError, match="expm overflow"):
            phi1_apply([[1e6]], [1.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_norm_not_finite_raises_overflow(self, bad):
        # an M formed by an overflow (the pulse's Nhat / eps) is expm's
        # overflow, not a usage error
        M = np.array([[1.0, bad], [0.0, 1.0]])
        with pytest.raises(FloatingPointError, match=r"\|\|M\|\|_1 is not finite"):
            _affine_flow(M, np.ones(2), np.zeros(2))


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


class TestResolvents:
    A = np.array([[-1.0, 5.0, 0.0], [0.0, -2.0, 3.0], [0.0, 0.0, -0.5]])

    def test_stack_matches_one_matrix_solves(self):
        rng = np.random.default_rng(24)
        A = rng.standard_normal((5, 5))
        ss = rng.uniform(-3, 3, 4) + 1j * rng.uniform(-3, 3, 4)
        v, V, W = (rng.standard_normal(5), rng.standard_normal((4, 5)),
                   rng.standard_normal((4, 5, 2)))
        X, Y = resolvent_apply(A, ss, V), resolvent_apply(A, ss, W)
        assert X.shape == (4, 5) and Y.shape == (4, 5, 2)
        for i, z in enumerate(ss):
            want = solve(z * np.eye(5) - A, v.astype(complex))
            assert np.array_equal(resolvent_apply(A, z, v), want)
            assert np.array_equal(X[i], resolvent_apply(A, z, V[i]))
            assert np.array_equal(Y[i], resolvent_apply(A, z, W[i]))

    def test_stacked_solve_reports_first_refused_shift(self):
        with pytest.raises(PoleHitError) as exc:
            resolvent_apply(self.A, [1.0, -0.5 + 1e-16, -2.0], np.ones((3, 3)))
        assert exc.value.s == -0.5 + 1e-16

    def test_first_refused_shift_is_reported(self):
        # -2 + 1e-15 fails the condition test; -2 is an exact zero pivot, so
        # the stacked inverse fails as a whole and each matrix is tried alone
        for ss, want in [([1.0, -2.0 + 1e-15, -2.0], -2.0 + 1e-15),
                         ([1.0, -2.0, -2.0 + 1e-15], -2.0),
                         ([0.5j, 1.0, -0.5 + 1e-16], -0.5 + 1e-16)]:
            with pytest.raises(PoleHitError) as exc:
                resolvent_apply(self.A, ss, np.ones((3, 3)))
            assert exc.value.s == want

    def test_pole_in_a_later_block(self):
        # at n = 100 a stacked resolvent_apply takes each shift as its own block
        A = -np.diag(np.arange(1.0, 101.0))
        V = np.ones((4, 100))
        with pytest.raises(PoleHitError) as exc:
            resolvent_apply(A, [0.5, 1.5j, -3.0, -4.0], V)
        assert exc.value.s == -3.0
        got = resolvent_apply(A, [0.5, 1.5j], V[:2])
        assert np.array_equal(got[1], resolvent_apply(A, 1.5j, V[1]))

    def test_bad_shifts(self):
        with pytest.raises(ValueError, match="non-finite"):
            resolvent_apply(self.A, [1.0, np.inf], np.ones((2, 3)))
        with pytest.raises(ValueError, match="1-D"):
            resolvent_apply(self.A, [[1.0]], np.ones((1, 3)))
        with pytest.raises(ValueError, match="stack"):
            resolvent_apply(self.A, [1.0, 2.0], np.ones(3))
        with pytest.raises(ValueError, match="one shift"):
            resolvent_apply(self.A, 1.0, np.ones(6))


class TestCertifiedSolves:
    """_solver takes an LU solve, or with an eigenbasis a modal solve, for a
    shift that the logarithmic-norm bound certifies, and resolvent_apply's
    checked inverse for any other."""

    @pytest.fixture
    def masks(self, monkeypatch):
        """The masks that _certified returns, one per call, as 1-D arrays."""
        seen, certified = [], linalg._certified

        def spy(*args):
            mask = certified(*args)
            seen.append(np.atleast_1d(mask).copy())
            return mask

        monkeypatch.setattr(linalg, "_certified", spy)
        return seen

    @staticmethod
    def both_ways(A, shifts, V, basis=None):
        """A solver's results position by position and as one stack, with A's
        bound (and basis, A's eigenbasis record), and resolvent_apply's; the
        stack taken in reverse by an index array gives the stack's values."""
        solve = _solver(A, shifts, _logarithmic_norm(A), basis)
        one = np.stack([solve(i, v) for i, v in enumerate(V)])
        stacked = solve(slice(None), V)
        back = np.arange(len(V))[::-1]
        assert np.array_equal(solve(back, V[back]), stacked[back])
        return one, stacked, resolvent_apply(A, shifts, V)

    @pytest.mark.parametrize("n", [2, 100])
    def test_shift_between_abscissa_and_mu2_takes_the_inverse(self, n, masks):
        rng = np.random.default_rng(8)
        A = (transient_growth_system().A if n == 2 else
             make_stable_system(rng, n=n).A)
        abscissa = np.linalg.eigvals(A).real.max()
        mu2 = _logarithmic_norm(A)[0]
        shifts = np.array([0.3 + 2.0j, 0.5 * mu2 - 1.0j, mu2])
        assert np.all((abscissa < shifts.real) & (shifts.real <= mu2))
        V = rng.standard_normal((3, n))
        one, stacked, public = self.both_ways(A, shifts, V)
        assert not np.concatenate(masks).any()
        assert np.array_equal(one, public) and np.array_equal(stacked, public)

    def certified_shifts(self, n, modal, masks):
        rng = np.random.default_rng(n)
        sys = normal_system(n)
        shifts = rng.uniform(0.3, 1.5, 6) + 1j * rng.uniform(-4.0, 4.0, 6)
        V = rng.standard_normal((6, n, 2))
        one, stacked, public = self.both_ways(sys.A, shifts, V, sys._eigenbasis if modal else None)
        assert np.concatenate(masks).all()
        for got in (one, stacked):
            assert np.max(np.abs(got - public)) <= 1e-13 * np.max(np.abs(public))
        return one, stacked

    @pytest.mark.parametrize("n", [4, 20, 100])
    def test_certified_shifts_match_the_inverse(self, n, masks):
        self.certified_shifts(n, False, masks)

    @pytest.mark.parametrize("n", [4, 20, 100])
    def test_modal_shifts_match_the_inverse(self, n, masks):
        # and a shift alone is bit-identical to its entry in a stack
        one, stacked = self.certified_shifts(n, True, masks)
        assert np.array_equal(one, stacked)

    def test_bound_just_above_the_threshold_falls_back(self, masks):
        # cond_inf(s I - A) <= (|s| + ||A||_inf) sqrt(n) / (Re s - mu2 - margin),
        # margin = 4 n sqrt(n) eps ||A||_inf; certified below 1 / (2 PIVOT_RTOL)
        A, n = -np.diag([1.0, 2.0, 3.0, 4.0]), 4
        mu2, norm = _logarithmic_norm(A)
        margin = 4 * n * math.sqrt(n) * np.finfo(float).eps * norm
        edge = (abs(mu2) + norm) * math.sqrt(n) * 2 * PIVOT_RTOL
        above, below = (mu2 + margin + f * edge for f in (0.999, 1.001))
        V = np.ones((2, n))
        one, stacked, public = self.both_ways(A, [above, below], V)
        assert [list(m) for m in masks] == [[False, True]]
        # the inverse check accepts both: cond_inf is 3 / (s + 1), about 1.5e11
        assert np.array_equal(one[0], public[0]) and np.array_equal(stacked[0], public[0])
        assert np.max(np.abs(one[1] - public[1])) <= 1e-13 * np.max(np.abs(public[1]))

    @staticmethod
    def first_refused(basis, masks):
        sys = normal_system(4)
        with pytest.raises(PoleHitError) as exc:
            _solver(sys.A, [1.0, -0.625 - 0.3125j, 2.0, -0.5 + 0.25j],
                    _logarithmic_norm(sys.A), basis(sys))(slice(None), np.ones((4, 4)))
        assert exc.value.s == -0.625 - 0.3125j
        assert list(masks[0]) == [True, False, True, False]

    def test_first_refused_shift_follows_certified_ones(self, masks):
        self.first_refused(lambda sys: None, masks)

    def test_first_refused_shift_follows_modal_ones(self, masks):
        self.first_refused(lambda sys: sys._eigenbasis, masks)


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
