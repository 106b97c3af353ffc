import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bivolt import (BilinearSystem, PoleHitError, eval_tf_regular,
                    eval_tf_symmetric, eval_tf_triangular, output_transform,
                    resolvent_apply, roc_margin)
from bivolt import linalg
from bivolt.linalg import _solver
from bivolt.transfer import _subset_sums

from conftest import make_stable_system, normal_system, transient_growth_system
from test_metamorphic import NORMAL, basis, transformed


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

    def test_pole_at_second_of_three_partial_sums(self, gain2_system):
        # partial sums (0.5, -1, 2): only the second hits the eigenvalue at -1
        with pytest.raises(PoleHitError) as exc:
            eval_tf_triangular(gain2_system, [1, 1, 1], [0.5, -1.5, 3.0])
        assert exc.value.s == -1.0 + 0.0j

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

    def test_pole_at_one_subset_sum(self, gain2_system):
        # no argument and no triple sum is -1; the pair s_1 + s_2 is
        with pytest.raises(PoleHitError) as exc:
            eval_tf_symmetric(gain2_system, [1, 1, 1], [0.5, -1.5, 2.0])
        assert exc.value.s == -1.0 + 0.0j

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

    def test_symmetric_is_smallest_subset_sum(self):
        sys = BilinearSystem(A=[[-1.0]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]])
        # s_2 + s_3 has the smallest real part, -2.5; no single argument and
        # no partial sum in the given order reaches it
        margin = roc_margin(sys, [3.0, -1.0, -1.5 + 2.0j], "symmetric")
        assert margin == pytest.approx(-1.5)

    def test_symmetric_order_cap(self, gain2_system):
        with pytest.raises(ValueError):
            roc_margin(gain2_system, [1.0] * 9, "symmetric")

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
    def test_non_finite_input_transform_is_refused(self, bad):
        rng = np.random.default_rng(6)
        sys = make_stable_system(rng, n=3, m=2)
        evaluators = [lambda s: 1.0 / (s + 1.0), lambda s: bad]
        for kind, arg in [("regular", "1.5"), ("triangular", "2.5"), ("symmetric", "2.5")]:
            with pytest.raises(ValueError, match=rf"channel 2 .*s = \({arg}\+0j\)"):
                output_transform(sys, [1, 2], [1.0, 2.5], kind, evaluators)

    def test_overflowing_input_factors_are_refused(self, gain2_system):
        with pytest.raises(ValueError, match="overflows"):
            output_transform(gain2_system, [1, 1], [1.0, 2.0], "triangular", lambda s: 1e200)


class TestPolesOfCertifiedSolves:
    """A shift on an eigenvalue of a normal A, or within 1e-13 of one, is
    never certified (Re s - mu2 is at most 1e-13), so the inverse check
    refuses it, with the shift, in every kind: at n = 4 and 100 alike, though
    the system has an eigenbasis, in which its certified shifts are solved."""

    @pytest.mark.parametrize("d", [0.0, 1e-13, -1e-13, 1e-13j])
    @pytest.mark.parametrize("lam", [-0.5 + 0.25j, -0.625 + 0.3125j])
    @pytest.mark.parametrize("n", [4, 100])
    def test_shift_on_an_eigenvalue_is_refused(self, n, lam, d):
        sys = normal_system(n, m=2)
        z = lam + d
        # the pole is the second argument, the second partial sum, and the
        # sum of both arguments, which every kind computes as written here
        for evaluate, s, pole in [(eval_tf_regular, (2.0, z), z),
                                  (eval_tf_triangular, (2.0, z - 2.0), 2.0 + (z - 2.0)),
                                  (eval_tf_symmetric, (0.5, z - 0.5), 0.5 + (z - 0.5))]:
            with pytest.raises(PoleHitError) as exc:
                evaluate(sys, [1, 2], s)
            assert exc.value.s == pole

    def test_non_finite_matrix_is_refused_before_its_bound(self):
        sys = BilinearSystem(A=[[np.nan]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            eval_tf_symmetric(sys, [1], [1.0])


# Every evaluation that solves resolvents, as f(sys, channels, s).
SOLVING = {
    "regular": lambda sys, chs, s: eval_tf_regular(sys, chs, s),
    "triangular": lambda sys, chs, s: eval_tf_triangular(sys, chs, s),
    "symmetric": lambda sys, chs, s: eval_tf_symmetric(sys, chs, s),
    **{f"output_{kind}": lambda sys, chs, s, kind=kind: output_transform(
        sys, chs, s, kind, lambda z: 1.0) for kind in ("regular", "triangular", "symmetric")},
    "resolvent_apply": lambda sys, chs, s: [resolvent_apply(sys.A, z, sys.B[:, 0]) for z in s],
}


class TestRefusalsKeepTheirPlace:
    """A system's A is checked once, where its certificate is formed, and a
    call's shifts once per call; each refusal is still made, with the same
    text, and a pole reports the same shift, by every evaluation."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", SOLVING)
    def test_non_finite_matrix(self, name, bad):
        sys = BilinearSystem(A=[[-1.0, bad], [0.0, -2.0]], N=np.eye(2), B=np.eye(2),
                             C=[[1.0, 1.0]])
        for _ in range(2):  # and again, after the system's cached state was asked for
            with pytest.raises(ValueError, match=r"^resolvent matrix has non-finite entries$"):
                SOLVING[name](sys, [1, 2], [1.0, 2.0])

    @pytest.mark.parametrize("name", SOLVING)
    def test_non_finite_shift(self, name):
        sys = normal_system(4, m=2)
        text = ("resolvent shift" if name == "resolvent_apply" else "frequency tuple")
        for bad in (math.inf, math.nan, complex(1.0, -math.inf)):
            with pytest.raises(ValueError, match=rf"^{text} has non-finite components$"):
                SOLVING[name](sys, [1, 2], [1.0, bad])
        if "regular" not in name and name != "resolvent_apply":
            # finite arguments whose sum overflows
            with pytest.raises(ValueError,
                               match=r"^resolvent shift has non-finite components$"):
                SOLVING[name](sys, [1, 2], [1e308, 1e308])

    @pytest.mark.parametrize("name", SOLVING)
    @pytest.mark.parametrize("system, lam", [(lambda: normal_system(4, m=2), -0.5 + 0.25j),
                                             (lambda: transient_growth_system(m=2), -1.0)],
                             ids=["eigenbasis", "no_eigenbasis"])
    def test_pole(self, name, system, lam):
        # the pole is the first shift of every kind: the first argument, the
        # first partial sum and the first of the singletons
        sys = system()
        assert (sys._eigenbasis is None) == (lam == -1.0)
        with pytest.raises(PoleHitError) as public:
            resolvent_apply(sys.A, lam, sys.B[:, 0])
        with pytest.raises(PoleHitError) as exc:
            SOLVING[name](sys, [1, 2], [lam, 2.0])
        assert exc.value.s == public.value.s == lam


def near_normal_system(n: int, cond: float = 1.5) -> BilinearSystem:
    """normal_system(n, m=2, p=2) in a basis T with singular values from 1
    down to 1 / cond: kappa_2 of A's eigenvectors is about cond, and mu2(A)
    lies above the spectral abscissa, -0.5."""
    base = normal_system(n, m=2, p=2)
    rng = np.random.default_rng(n)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    W, _ = np.linalg.qr(rng.standard_normal((n, n)))
    T = U @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ W.T
    Tinv = np.linalg.inv(T)
    return BilinearSystem(A=Tinv @ base.A @ T, N=Tinv @ base.N @ T, B=Tinv @ base.B,
                          C=base.C @ T)


# systems with an eigenbasis, kappa_2(V) = 1 and about 1.5
SYSTEMS = {"normal": lambda n: normal_system(n, m=2, p=2), "near_normal": near_normal_system}
# tests/test_metamorphic.py's 4-state core with a normal A, which has an
# eigenbasis, and that core under its kappa(T) = 3 and 30 similarities, which
# have none
CORES = {"core": lambda: NORMAL,
         **{f"core_kappa{c}": lambda c=c: transformed(NORMAL, basis(float(c))) for c in (3, 30)}}


def certified_solve(sys):
    """One shift's _solver with the system's certificate and eigenbasis, as
    the evaluators take it."""
    return lambda A, z, v: _solver(A, [z], sys._resolvent_bound, sys._eigenbasis)(0, v)


def chain(solve, sys, chs, sigmas):
    """C X_k N_{j_k} ... X_1 b_{j_1} with X_i v = solve(A, sigma_i, v), one shift at a time."""
    v = solve(sys.A, sigmas[0], sys.B[:, chs[0] - 1])
    for j, z in zip(chs[1:], sigmas[1:]):
        v = solve(sys.A, z, sys.N[j - 1] @ v)
    return sys.C @ v


def symmetric(solve, sys, chs, s):
    """The symmetric kind's subset recursion, one scalar solve per subset."""
    ss, k = [complex(z) for z in s], len(s)
    F = {}
    for size in range(1, k + 1):
        for S in itertools.combinations(range(k), size):
            sigma = 0j
            for i in S:
                sigma += ss[i]
            if size == 1:
                v = sys.B[:, chs[S[0]] - 1].astype(complex)
            else:
                v = sum(sys.N[chs[i] - 1] @ F[tuple(x for x in S if x != i)] for i in S)
            F[S] = solve(sys.A, sigma, v)
    return sys.C @ F[tuple(range(k))] / math.factorial(k)


def close(got, want):
    return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestChainsOfScalarSolves:
    """Each evaluator equals, bit for bit, its chain of scalar solves.

    Every evaluator solves through linalg._solver with the system's
    certificate and basis, which takes a modal solve (with a basis) or an LU
    solve (without) for a certified shift and the checked inverse for any
    other, and its chain is one of that solve, one shift at a time. It
    agrees with the public chain, checked by the inverse, to 1e-13.
    """

    # "stable" has no eigenbasis: at n = 100 its triangular chain's last two
    # partial sums and three of the 15 subset sums are certified, at n = 5
    # all. The SYSTEMS have one, and every shift here is certified: they
    # take the modal path. At n = 4, where a solve costs least beside its
    # set-up, tests/test_metamorphic.py's NORMAL core takes the modal path
    # too, and its similarities with no eigenbasis the other two: at
    # kappa(T) = 3 every shift is certified (LU), at kappa(T) = 30 none
    # (the checked inverse), test_cores_take_the_dense_paths.
    @pytest.fixture(params=[("stable", n) for n in (5, 100)]
                    + [(kind, n) for kind in SYSTEMS for n in (5, 100)]
                    + [(kind, 4) for kind in CORES],
                    ids=lambda p: str(p[1]) if p[0] == "stable" else f"{p[0]}-{p[1]}")
    def case(self, request):
        kind, n = request.param
        rng = np.random.default_rng(45)
        if kind == "stable":
            sys = make_stable_system(rng, n=n, m=2, p=2)
        else:
            sys = CORES[kind]() if kind in CORES else SYSTEMS[kind](n)
        assert (sys._eigenbasis is None) == (kind in ("stable", "core_kappa3", "core_kappa30"))
        s = rng.uniform(0.3, 1.5, 4) + 1j * rng.uniform(-2.0, 2.0, 4)
        return sys, [2, 1, 1, 2], s

    def test_regular(self, case):
        sys, chs, s = case
        got = eval_tf_regular(sys, chs, s).value
        sigmas = [complex(z) for z in s]
        assert np.array_equal(got, chain(certified_solve(sys), sys, chs, sigmas))
        assert close(got, chain(resolvent_apply, sys, chs, sigmas))

    def test_triangular(self, case):
        sys, chs, s = case
        got = eval_tf_triangular(sys, chs, s).value
        sums = list(itertools.accumulate(complex(z) for z in s))
        assert np.array_equal(got, chain(certified_solve(sys), sys, chs, sums))
        assert close(got, chain(resolvent_apply, sys, chs, sums))

    def test_symmetric(self, case):
        sys, chs, s = case
        got = eval_tf_symmetric(sys, chs, s).value
        assert np.array_equal(got, symmetric(certified_solve(sys), sys, chs, s))
        assert close(got, symmetric(resolvent_apply, sys, chs, s))

    def test_cores_take_the_dense_paths(self):
        rng = np.random.default_rng(45)
        s = tuple(rng.uniform(0.3, 1.5, 4) + 1j * rng.uniform(-2.0, 2.0, 4))
        shifts = np.array(s + tuple(itertools.accumulate(s)) + tuple(_subset_sums(s)[1:]))
        for kind, every in (("core_kappa3", True), ("core_kappa30", False)):
            sys = CORES[kind]()
            assert (linalg._certified(shifts, 4, sys._resolvent_bound) == every).all()


class TestModalSolves:
    """Where the system has an eigenbasis, a certified shift is solved in it
    (linalg._modal_solve), and any other shift by the checked inverse, so
    the shifts refused, and the first of them, are those of resolvent_apply."""

    @pytest.fixture
    def modal_calls(self, monkeypatch):
        """The shift counts of the modal solves made, one entry per call: a
        position's Y is (n, r), a stack's (q, n, r)."""
        seen, modal = [], linalg._modal_solve

        def spy(A, Y, *args):
            seen.append(len(Y) if Y.ndim == 3 else 1)
            return modal(A, Y, *args)

        monkeypatch.setattr(linalg, "_modal_solve", spy)
        return seen

    @pytest.mark.parametrize("kind", ["normal", "near_normal"])
    @pytest.mark.parametrize("n", [5, 100])
    def test_every_certified_shift_is_modal(self, kind, n, modal_calls):
        sys = SYSTEMS[kind](n)
        s = [0.7 + 0.4j, 0.3 - 0.8j, 0.5 + 1.1j]
        assert linalg._certified(np.array(s), n, sys._resolvent_bound).all()
        eval_tf_regular(sys, [1, 2, 1], s)
        eval_tf_triangular(sys, [1, 2, 1], s)
        assert modal_calls == [1] * 6
        eval_tf_symmetric(sys, [1, 2, 1], s)  # 3 singletons, 3 pairs, 1 triple
        assert modal_calls[6:] == [3, 3, 1]

    @pytest.mark.parametrize("n", [4, 5, 100])
    def test_real_shifts_give_real_values(self, n, modal_calls):
        # V is complex where A has complex eigenvalues, so the modal chain
        # alone leaves an imaginary part at rounding level (1.5e-32 for the
        # regular kind at n = 4); LU and the inverse leave none
        sys = normal_system(n, m=2, p=2)
        s, chs = [1.0, 2.0], [1, 2]
        assert np.iscomplexobj(sys._eigenbasis.V)
        for got, want in [
                (eval_tf_regular(sys, chs, s).value, chain(resolvent_apply, sys, chs, s)),
                (eval_tf_triangular(sys, chs, s).value, chain(resolvent_apply, sys, chs, [1.0, 3.0])),
                (eval_tf_symmetric(sys, chs, s).value, symmetric(resolvent_apply, sys, chs, s))]:
            assert got.dtype == complex and not got.imag.any()
            assert not want.imag.any() and close(got, want)
        assert modal_calls == [1, 1, 1, 1, 2, 1]

    @pytest.mark.parametrize("kind", ["normal", "near_normal"])
    def test_refined_residual_is_at_lu_level(self, kind):
        # at n = 100 the unrefined x = V ((V^{-1} v) / (s - w)) left residuals
        # 4.9x and 3.5x LU's; one refinement step brought them to 0.6x and
        # 0.4x. At n = 5 all three sit at the rounding of the residual itself.
        n = 100
        sys = SYSTEMS[kind](n)
        rng = np.random.default_rng(3)
        s = rng.uniform(0.3, 1.5, 8) + 1j * rng.uniform(-2.0, 2.0, 8)
        V = rng.standard_normal((8, n))
        K = s[:, None, None] * np.eye(n) - sys.A

        def residual(X):
            return np.max(np.abs(V - (K @ X[:, :, None])[:, :, 0])) / np.max(np.abs(V))

        modal = _solver(sys.A, s, sys._resolvent_bound, sys._eigenbasis)(slice(None), V)
        lu = _solver(sys.A, s, sys._resolvent_bound)(slice(None), V)
        assert residual(modal) <= 1.5 * residual(lu)

    @pytest.mark.parametrize("n", [5, 100])
    def test_shift_at_or_below_mu2_takes_the_inverse(self, n, modal_calls):
        sys = near_normal_system(n)
        mu2 = sys._resolvent_bound[0]
        z = mu2 - 0.01 + 2.0j  # right of every eigenvalue, left of mu2
        assert sys.spectral_abscissa < z.real <= mu2
        got = eval_tf_regular(sys, [1, 2], [1.0, z]).value
        first = certified_solve(sys)(sys.A, 1.0, sys.B[:, 0])
        want = sys.C @ resolvent_apply(sys.A, z, sys.N[1] @ first)
        assert np.array_equal(got, want)
        assert modal_calls == [1, 1]  # the first position, in the evaluator and here

    @pytest.mark.parametrize("n", [5, 100])
    @pytest.mark.parametrize("lam", [-0.5 + 0.25j, -0.625 - 0.3125j])
    def test_pole_is_refused_as_resolvent_apply_refuses_it(self, n, lam):
        sys = normal_system(n, m=2)
        assert sys._eigenbasis is not None
        with pytest.raises(PoleHitError) as public:
            resolvent_apply(sys.A, lam, sys.B[:, 1])
        for evaluate, s in [(eval_tf_regular, (2.0, lam)),
                            (eval_tf_triangular, (2.0, lam - 2.0))]:
            with pytest.raises(PoleHitError) as exc:
                evaluate(sys, [1, 2], s)
            assert exc.value.s == public.value.s

    @pytest.mark.parametrize("n", [5, 100])
    def test_first_subset_sum_on_the_spectrum(self, n):
        # s_1 + s_3 and s_2 + s_3 hit the eigenvalues -0.5 + 0.25i and
        # -0.625 + 0.3125i. s_3 lies left of the spectrum, off it, and takes
        # the checked inverse; the other sums are certified and solved in
        # the eigenbasis. The first pair in the recursion's order is reported.
        sys = normal_system(n, m=2)
        s = (1.5 - 0.5j, 1.375 - 0.4375j, -2.0 + 0.75j)
        chs = [1, 2, 1]
        with pytest.raises(PoleHitError) as dense:
            symmetric(resolvent_apply, sys, chs, s)
        with pytest.raises(PoleHitError) as exc:
            eval_tf_symmetric(sys, chs, s)
        assert exc.value.s == dense.value.s == s[0] + s[2]


class TestNoBasisChains:
    """On a system with no eigenbasis below n = 91 the chains solve their
    certified positions by LU and the others by the checked inverse, which
    refuses a pole with the shift that resolvent_apply reports.

    transient_growth_system has eigenvalues -1 and -1.5 and mu2(A) = 8.753,
    so a shift far enough right of 8.753 is certified, and one at -1 is a
    pole."""

    @pytest.fixture
    def sys(self):
        sys = transient_growth_system(m=2)
        assert sys._eigenbasis is None
        assert 8.75 < sys._resolvent_bound[0] < 8.76
        return sys

    @pytest.mark.parametrize("evaluate, s", [(eval_tf_regular, (10.0, -1.0)),
                                             (eval_tf_triangular, (10.0, -11.0)),
                                             (eval_tf_symmetric, (10.0, -11.0))],
                             ids=["regular", "triangular", "symmetric"])
    def test_pole_after_a_certified_shift(self, sys, evaluate, s):
        # 10 is certified and solved by LU; -1 (the second argument, partial
        # sum or subset sum) is not, and the inverse check refuses it
        assert list(linalg._certified(np.array([10.0, -1.0]), 2, sys._resolvent_bound)) == \
            [True, False]
        with pytest.raises(PoleHitError) as public:
            resolvent_apply(sys.A, -1.0, sys.B[:, 1])
        with pytest.raises(PoleHitError) as exc:
            evaluate(sys, [1, 2], s)
        assert exc.value.s == public.value.s == -1.0

    def test_mixed_chain_matches_the_public_chain(self, sys, monkeypatch):
        taken, lu, inverses = [], np.linalg.solve, linalg._inverses
        monkeypatch.setattr(np.linalg, "solve", lambda *a: taken.append("lu") or lu(*a))
        monkeypatch.setattr(linalg, "_inverses", lambda K: taken.append("inverse") or inverses(K))
        chs, s = [1, 2, 2], [10.0 + 1.0j, 0.5 - 2.0j, 20.0]
        got = eval_tf_regular(sys, chs, s).value
        assert taken == ["lu", "inverse", "lu"]
        monkeypatch.undo()
        assert np.array_equal(got, chain(certified_solve(sys), sys, chs, s))
        assert close(got, chain(resolvent_apply, sys, chs, s))
