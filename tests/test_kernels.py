import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bivolt import (classify_regular, classify_triangular, effective_matrices,
                    eval_regular, eval_symmetric, eval_triangular, expm,
                    triangular_coords_from_regular)

from conftest import make_stable_system


class TestClassify:
    def test_triangular_interior(self):
        rc = classify_triangular([3.0, 2.0, 1.0])
        assert (rc.kind, rc.n, rc.factor) == ("interior", 3, 1.0)

    def test_triangular_full_tie(self):
        rc = classify_triangular([1.0, 1.0, 1.0])
        assert (rc.kind, rc.n) == ("surface", 1)
        assert rc.factor == pytest.approx(1.0 / 6.0)

    def test_triangular_order_violation_is_zero(self):
        assert classify_triangular([1.0, 2.0]).kind == "zero"

    def test_triangular_bottom_face_is_zero(self):
        assert classify_triangular([2.0, 1.0, 0.0]).kind == "zero"

    def test_triangular_tie_within_tolerance(self):
        rc = classify_triangular([1.0, 1.0 + 1e-12])
        assert (rc.kind, rc.n) == ("surface", 1)

    def test_regular_interior(self):
        rc = classify_regular([1.0, 1.0, 1.0])
        assert (rc.kind, rc.n, rc.factor) == ("interior", 3, 1.0)

    def test_regular_double_zero(self):
        rc = classify_regular([0.0, 0.0, 1.0])
        assert (rc.kind, rc.n) == ("surface", 1)
        assert rc.factor == pytest.approx(1.0 / 6.0)

    def test_regular_negative_coordinate_is_zero(self):
        assert classify_regular([-0.5, 1.0]).kind == "zero"

    def test_regular_single_zero(self):
        rc = classify_regular([0.0, 0.5, 1.0])
        assert (rc.kind, rc.n) == ("surface", 2)
        assert rc.factor == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 1])
    @pytest.mark.parametrize("classify", [classify_triangular, classify_regular])
    def test_non_finite_times_refused(self, classify, where, bad):
        times = [1.0, 0.5]
        times[where] = bad
        with pytest.raises(ValueError, match="non-finite"):
            classify(times)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("evaluate", [eval_triangular, eval_regular, eval_symmetric])
def test_evaluators_refuse_non_finite_times(scalar_system, evaluate, bad):
    with pytest.raises(ValueError, match="non-finite"):
        evaluate(scalar_system, [1, 1], [bad, 0.5])


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
def test_bad_tolerance_refused(scalar_system, tol):
    # NaN compares false against every bound: unchecked, it reads a tie as a
    # face of dimension 0 and lets a negative time through the symmetric kernel.
    for classify in (classify_triangular, classify_regular):
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            classify([0.5, 1.0], tol=tol)
    for evaluate, times in ((eval_triangular, [2.0, 1.0]), (eval_regular, [0.5, 1.0]),
                            (eval_symmetric, [-2.0, 1.0])):
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            evaluate(scalar_system, [1, 1], times, tol=tol)


class TestTriangularKernel:
    def test_interior_scalar(self, scalar_system):
        got = eval_triangular(scalar_system, [1, 1], [2.0, 1.0])[0]
        assert got == pytest.approx(0.5 * math.exp(-2.0), rel=1e-12)

    def test_tie_gets_half(self, scalar_system):
        got = eval_triangular(scalar_system, [1, 1], [1.0, 1.0])[0]
        assert got == pytest.approx(0.25 * math.exp(-1.0), rel=1e-12)

    def test_outside_simplex_zero(self, scalar_system):
        assert eval_triangular(scalar_system, [1, 1], [1.0, 2.0])[0] == 0.0

    def test_order_one_is_linear_kernel(self):
        rng = np.random.default_rng(1)
        sys = make_stable_system(rng, n=4, m=2, p=2)
        t = 0.7
        got = eval_triangular(sys, [2], [t])
        assert_allclose(got, sys.C @ expm(sys.A, t) @ sys.B[:, 1], rtol=1e-12)


class TestRegularKernel:
    def test_interior_scalar(self, scalar_system):
        got = eval_regular(scalar_system, [1, 1], [1.0, 1.0])[0]
        assert got == pytest.approx(0.5 * math.exp(-2.0), rel=1e-12)

    def test_zero_face_gets_half(self, scalar_system):
        got = eval_regular(scalar_system, [1, 1], [0.0, 1.0])[0]
        assert got == pytest.approx(0.25 * math.exp(-1.0), rel=1e-12)

    def test_order3_double_zero(self, scalar_system):
        # (1/6) c e^{at} n^2 b on the intersection line
        t = 0.8
        got = eval_regular(scalar_system, [1, 1, 1], [0.0, 0.0, t])[0]
        assert got == pytest.approx(math.exp(-t) * 0.5 ** 2 / 6.0, rel=1e-12)


class TestSymmetricKernel:
    def test_argument_order_irrelevant(self, scalar_system):
        a = eval_symmetric(scalar_system, [1, 1], [1.0, 2.0])[0]
        b = eval_symmetric(scalar_system, [1, 1], [2.0, 1.0])[0]
        assert a == b == pytest.approx(0.25 * math.exp(-2.0), rel=1e-12)

    def test_tie_matches_triangular(self, scalar_system):
        t = 0.9
        sym = eval_symmetric(scalar_system, [1, 1], [t, t])
        tri = eval_triangular(scalar_system, [1, 1], [t, t])
        assert_allclose(sym, tri, rtol=1e-12)

    def test_order_one_matches_triangular(self, scalar_system):
        got = eval_symmetric(scalar_system, [1], [0.6])
        assert_allclose(got, eval_triangular(scalar_system, [1], [0.6]),
                        rtol=1e-14)

    def test_permutation_invariance_mimo(self):
        rng = np.random.default_rng(8)
        sys = make_stable_system(rng, n=3, m=2, p=2)
        ts = [1.3, 0.4, 2.2]
        chs = [2, 1, 2]
        base = eval_symmetric(sys, chs, ts)
        scale = max(np.max(np.abs(base)), 1e-30)
        import itertools
        for perm in itertools.permutations(range(3)):
            got = eval_symmetric(sys, [chs[i] for i in perm],
                                 [ts[i] for i in perm])
            assert np.max(np.abs(got - base)) <= 1e-12 * scale

    def test_degenerate_tuple_permutes_to_itself(self):
        # (t, t, t) is unchanged by any permutation, so deviation is exactly 0
        rng = np.random.default_rng(19)
        sys = make_stable_system(rng, n=3)
        base = eval_symmetric(sys, [1, 1, 1], [0.8, 0.8, 0.8])
        again = eval_symmetric(sys, [1, 1, 1], [0.8, 0.8, 0.8])
        assert np.array_equal(base, again)

    def test_rejects_nonpositive_times(self, scalar_system):
        with pytest.raises(ValueError):
            eval_symmetric(scalar_system, [1, 1], [1.0, 0.0])


class TestCoordinateMap:
    def test_order_two(self):
        assert triangular_coords_from_regular([1.0, 2.0]) == (3.0, 2.0)

    def test_order_three_cumulative(self):
        assert triangular_coords_from_regular([1.0, 1.0, 1.0]) == (3.0, 2.0, 1.0)

    def test_zeros_map_to_ties(self):
        assert triangular_coords_from_regular([0.0, 0.0, 0.7]) == (0.7, 0.7, 0.7)

    def test_transform_consistency_including_boundaries(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            sys = make_stable_system(rng, n=n, m=m, p=int(rng.integers(1, 3)))
            k = int(rng.integers(1, 5))
            ts = rng.uniform(0.0, 2.0, size=k)
            ts[-1] = rng.uniform(0.1, 2.0)
            if k > 1 and rng.random() < 0.5:
                ts[rng.integers(0, k - 1)] = 0.0  # boundary face
            chs = rng.integers(1, m + 1, size=k)
            reg = eval_regular(sys, chs, ts)
            tri = eval_triangular(sys, chs, triangular_coords_from_regular(ts))
            scale = max(np.max(np.abs(reg)), 1.0)
            assert np.max(np.abs(reg - tri)) <= 1e-10 * scale


class TestImpulseConsistency:
    def test_equal_time_kernels_match_subsystem_formula(self):
        # tri(t,..,t) = reg(0,..,0,t) = (1/k!) C e^{At} Nhat^{k-1} bhat
        rng = np.random.default_rng(23)
        for _ in range(20):
            sys = make_stable_system(rng, n=int(rng.integers(1, 5)))
            eff = effective_matrices(sys, [1.0])
            t = rng.uniform(0.2, 2.0)
            for k in range(1, 5):
                tri = eval_triangular(sys, [1] * k, [t] * k)
                reg = eval_regular(sys, [1] * k, [0.0] * (k - 1) + [t])
                core = eff.bhat / math.factorial(k)
                for _ in range(k - 1):
                    core = eff.Nhat @ core
                closed = sys.C @ expm(sys.A, t) @ core
                scale = max(np.max(np.abs(closed)), 1e-12)
                assert np.max(np.abs(tri - closed)) <= 1e-10 * scale
                assert np.max(np.abs(reg - closed)) <= 1e-10 * scale

    def test_interior_factor_is_one(self):
        assert classify_triangular([5.0, 3.0, 1.0]).factor == 1.0
        assert classify_regular([2.0, 3.0, 1.0]).factor == 1.0


class TestMimoOperatorOrder:
    # hand-written products pin the channel convention: b_{j1} enters first,
    # N_{jk} sits next to the final propagator

    def test_triangular_chain(self):
        rng = np.random.default_rng(33)
        sys = make_stable_system(rng, n=3, m=3, p=2)
        t1, t2, t3 = 2.0, 1.2, 0.5
        j1, j2, j3 = 2, 3, 1
        expected = (sys.C @ expm(sys.A, t3) @ sys.N[j3 - 1]
                    @ expm(sys.A, t2 - t3) @ sys.N[j2 - 1]
                    @ expm(sys.A, t1 - t2) @ sys.B[:, j1 - 1])
        got = eval_triangular(sys, [j1, j2, j3], [t1, t2, t3])
        assert_allclose(got, expected, rtol=1e-12)

    def test_regular_chain(self):
        rng = np.random.default_rng(34)
        sys = make_stable_system(rng, n=3, m=2, p=1)
        t1, t2, t3 = 0.4, 1.1, 0.9
        j1, j2, j3 = 1, 2, 2
        expected = (sys.C @ expm(sys.A, t3) @ sys.N[j3 - 1]
                    @ expm(sys.A, t2) @ sys.N[j2 - 1]
                    @ expm(sys.A, t1) @ sys.B[:, j1 - 1])
        got = eval_regular(sys, [j1, j2, j3], [t1, t2, t3])
        assert_allclose(got, expected, rtol=1e-12)


class TestChainsOfScalarExponentials:
    """Each kernel equals, bit for bit, its chain of scalar expm calls."""

    @staticmethod
    def chain(sys, chs, slots):
        v = expm(sys.A, slots[0]) @ sys.B[:, chs[0] - 1]
        for j, t in zip(chs[1:], slots[1:]):
            v = expm(sys.A, t) @ (sys.N[j - 1] @ v)
        return sys.C @ v

    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(46)
        # times up to 12 give slots that need no squaring and slots that need several
        return make_stable_system(rng, n=4, m=2, p=2), [1, 2, 2, 1], [12.0, 7.5, 0.8, 0.3]

    def test_triangular(self, case):
        sys, chs, ts = case
        slots = [a - b for a, b in zip(ts, ts[1:] + [0.0])]
        assert np.array_equal(eval_triangular(sys, chs, ts), self.chain(sys, chs, slots))

    def test_regular(self, case):
        sys, chs, ts = case
        assert np.array_equal(eval_regular(sys, chs, ts), self.chain(sys, chs, ts))

    def test_symmetric(self, case):
        sys, chs, ts = case
        order = [2, 0, 3, 1]
        got = eval_symmetric(sys, [chs[i] for i in order], [ts[i] for i in order])
        slots = [a - b for a, b in zip(ts, ts[1:] + [0.0])]
        assert np.array_equal(got, (1.0 / math.factorial(4)) * self.chain(sys, chs, slots))

    def test_tied_times_keep_the_face_factor(self, case):
        sys, chs, _ = case
        ts = [2.0, 2.0, 0.5, 0.5]
        slots = [0.0, 1.5, 0.0, 0.5]
        want = (1.0 / math.factorial(3)) * self.chain(sys, chs, slots)
        assert np.array_equal(eval_triangular(sys, chs, ts), want)
