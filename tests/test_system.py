import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import bivolt as bv
from bivolt import (BilinearSystem, TimeGrid, effective_matrices, fold_implicit,
                    ode_direct, sine_signal, validate, volterra_cascade)

from conftest import make_stable_system

CASCADE_K = 3


def implicit_rk4(sys, u, grid, K):
    """RK4 on E x' = f(x) solving with E at every stage; outputs (nodes, rows, p).

    The full system when K is None (one row), else the first K cascade orders.
    """
    times = grid.times()
    h = grid.dt
    U = u.at_many(times)
    Um = u.at_many(times[:-1] + 0.5 * h)

    def rhs(uv, X):
        Nu = np.tensordot(uv, sys.N, axes=1)
        dX = X @ sys.A.T
        dX[0] += sys.B @ uv
        if K is None:
            dX += X @ Nu.T
        else:
            dX[1:] += X[:-1] @ Nu.T
        return np.linalg.solve(sys.E, dX.T).T

    X = np.zeros((1 if K is None else K, sys.n))
    X[0] = sys.x0
    states = [X]
    for i in range(grid.nodes - 1):
        k1 = rhs(U[i], X)
        k2 = rhs(Um[i], X + 0.5 * h * k1)
        k3 = rhs(Um[i], X + 0.5 * h * k2)
        k4 = rhs(U[i + 1], X + h * k3)
        X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(X)
    return np.array(states) @ sys.C.T


class TestValidate:
    def test_consistent_system_passes(self, scalar_system):
        assert validate(scalar_system) == []

    def test_wrong_b_rows_named(self):
        sys = BilinearSystem(A=np.eye(2), N=np.zeros((1, 2, 2)),
                             B=np.ones((3, 1)), C=np.ones((1, 2)))
        violations = validate(sys)
        assert len(violations) == 1
        assert "B" in violations[0]

    def test_singular_e_reported(self):
        for E in (np.zeros((2, 2)), [[1.0, 1.0], [1.0, 1.0 + 1e-14]]):
            sys = BilinearSystem(A=np.eye(2), N=np.zeros((1, 2, 2)),
                                 B=np.ones((2, 1)), C=np.ones((1, 2)), E=E)
            assert any("E" in v and "singular" in v for v in validate(sys))

    def test_nonfinite_entries_reported(self):
        sys = BilinearSystem(A=[[np.inf]], N=[[[0.0]]], B=[[1.0]], C=[[1.0]])
        assert any("A" in v for v in validate(sys))

    @pytest.mark.parametrize("blocks, messages", [
        (dict(B=np.ones((3, 1))), ["B has shape (3, 1); expected (2, m)"]),
        (dict(N=np.zeros((1, 3, 3))), ["N has shape (1, 3, 3); expected (m, 2, 2)"]),
        (dict(N=np.zeros((2, 2, 2))), ["N holds 2 matrices; expected m = 1"]),
        (dict(C=np.ones((1, 3))), ["C has shape (1, 3); expected (p, 2)"]),
        (dict(x0=np.ones(3)), ["x0 has shape (3,); expected (2,)"]),
        (dict(E=np.eye(3)), ["E has shape (3, 3); expected (2, 2)"]),
        (dict(E=[[1.0, np.nan], [0.0, 1.0]]), ["E has non-finite entries"]),
    ])
    def test_each_shape_refusal_named(self, blocks, messages):
        parts = dict(A=np.eye(2), N=np.zeros((1, 2, 2)), B=np.ones((2, 1)), C=np.ones((1, 2)))
        assert validate(BilinearSystem(**{**parts, **blocks})) == messages


class TestConstruction:
    def test_arrays_are_private_read_only_copies(self):
        A = np.array([[-1.0, 0.0], [0.0, -2.0]])
        N = np.zeros((2, 2))
        sys = BilinearSystem(A=A, N=N, B=np.ones((2, 1)), C=np.ones((1, 2)))
        assert A.flags.writeable and N.flags.writeable
        assert sys.spectral_abscissa == -1.0
        A[0, 0] = N[0, 0] = 5.0
        assert sys.A[0, 0] == -1.0 and sys.N[0, 0, 0] == 0.0
        assert sys.spectral_abscissa == -1.0
        with pytest.raises(ValueError):
            sys.A[0, 0] = 1.0


class TestFoldImplicit:
    def test_identity_e_is_noop(self, scalar_system):
        rng = np.random.default_rng(0)
        sys = make_stable_system(rng, n=3)
        implicit = BilinearSystem(A=sys.A, N=sys.N, B=sys.B, C=sys.C,
                                  x0=sys.x0, E=np.eye(3))
        folded = fold_implicit(implicit)
        assert folded.E is None
        assert_allclose(folded.A, sys.A, atol=1e-14)
        assert_allclose(folded.N, sys.N, atol=1e-14)
        assert_allclose(folded.B, sys.B, atol=1e-14)

    def test_scaled_identity(self):
        sys = BilinearSystem(A=np.eye(2), N=np.zeros((1, 2, 2)),
                             B=np.ones((2, 1)), C=np.ones((1, 2)),
                             E=2.0 * np.eye(2))
        folded = fold_implicit(sys)
        assert_allclose(folded.A, 0.5 * np.eye(2), atol=1e-15)

    def test_scalar_division(self):
        sys = BilinearSystem(A=[[-4.0]], N=[[[2.0]]], B=[[8.0]], C=[[1.0]],
                             E=[[4.0]])
        folded = fold_implicit(sys)
        assert folded.A[0, 0] == pytest.approx(-1.0)
        assert folded.N[0, 0, 0] == pytest.approx(0.5)
        assert folded.B[0, 0] == pytest.approx(2.0)
        assert folded.C[0, 0] == 1.0

    def test_no_e_returned_unchanged(self, scalar_system):
        assert fold_implicit(scalar_system) is scalar_system

    def test_singular_e_raises(self):
        for E in (np.zeros((2, 2)), [[1.0, 1.0], [1.0, 1.0 + 1e-14]]):
            sys = BilinearSystem(A=np.eye(2), N=np.zeros((1, 2, 2)),
                                 B=np.ones((2, 1)), C=np.ones((1, 2)), E=E)
            with pytest.raises(ValueError, match="singular"):
                fold_implicit(sys)

    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(n=st.integers(1, 5), m=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
    def test_fold_then_simulate_matches_implicit_integration(self, n, m, seed):
        # oracle: RK4 that solves E xdot = Ax + (sum N u) x + Bu per stage, for
        # the full system and for the cascade orders
        rng = np.random.default_rng(seed)
        base = make_stable_system(rng, n=n, m=m, p=1, with_x0=True)
        E = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        assume(np.linalg.cond(E) < 1e3)
        implicit = BilinearSystem(A=base.A, N=base.N, B=base.B, C=base.C,
                                  x0=base.x0, E=E)
        grid = TimeGrid(0.0, 3.0, 2e-3)
        u = sine_signal(grid, rng.standard_normal(m))
        folded = fold_implicit(implicit)
        got = [ode_direct(folded, u, grid).values,
               *volterra_cascade(folded, u, CASCADE_K, grid).per_order]
        want = [implicit_rk4(implicit, u, grid, None)[:, 0],
                *implicit_rk4(implicit, u, grid, CASCADE_K).transpose(1, 0, 2)]
        for g, w in zip(got, want):
            assert np.linalg.norm(g - w) <= 1e-8 * np.linalg.norm(w)


S2, GRID = (1.0, 0.5), TimeGrid(0.0, 1.0, 0.01)
STEP = bv.step_signal(GRID)
# Every public function that takes a system, with arguments it accepts for the
# folded scalar system a = -0.5, n = 0.25, b = 0.5, c = 1.
TAKES_SYSTEM = {
    "eval_triangular": lambda s: bv.eval_triangular(s, [1, 1], S2),
    "eval_regular": lambda s: bv.eval_regular(s, [1, 1], S2),
    "eval_symmetric": lambda s: bv.eval_symmetric(s, [1, 1], S2),
    "eval_tf_regular": lambda s: bv.eval_tf_regular(s, [1, 1], S2),
    "eval_tf_triangular": lambda s: bv.eval_tf_triangular(s, [1, 1], S2),
    "eval_tf_symmetric": lambda s: bv.eval_tf_symmetric(s, [1, 1], S2),
    "roc_margin": lambda s: bv.roc_margin(s, S2, "regular"),
    "output_transform": lambda s: bv.output_transform(
        s, [1, 1], S2, "regular", lambda z: 1.0 / (z + 1.0)),
    "effective_matrices": lambda s: bv.effective_matrices(s, [1.0]),
    "impulse_response": lambda s: bv.impulse_response(s, [1.0], 1.0),
    "impulse_response_subsystem": lambda s: bv.impulse_response_subsystem(
        s, [1.0], 2, 1.0),
    "nascent_response": lambda s: bv.nascent_response(s, [1.0], 0.01, 1.0),
    "ode_direct": lambda s: bv.ode_direct(s, STEP, GRID),
    "volterra_cascade": lambda s: bv.volterra_cascade(s, STEP, 2, GRID),
    "laplace_quadrature": lambda s: bv.laplace_quadrature(
        s, [1, 1], "regular", S2, 8.0, 4),
    "suggest_truncation": lambda s: bv.suggest_truncation(
        s, [1, 1], "regular", S2, 1e-6),
    "aux_output_2d": lambda s: bv.aux_output_2d(s, STEP, "triangular", 1.0, 0.5),
    "eps_sweep": lambda s: bv.eps_sweep(s, [1.0], [0.02, 0.01], [1.0]),
    "symmetry_probe": lambda s: bv.symmetry_probe(s, 2, 1),
}


@pytest.mark.parametrize("call", TAKES_SYSTEM.values(), ids=TAKES_SYSTEM.keys())
def test_implicit_system_refused_folded_accepted(call):
    implicit = BilinearSystem(A=[[-1.0]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]],
                              E=[[2.0]])
    with pytest.raises(ValueError, match="fold_implicit"):
        call(implicit)
    call(fold_implicit(implicit))


class TestEffectiveMatrices:
    def test_single_input_unit_weight(self, scalar_system):
        eff = effective_matrices(scalar_system, [1.0])
        assert_allclose(eff.Nhat, scalar_system.N[0])
        assert_allclose(eff.bhat, scalar_system.B[:, 0])

    def test_zero_weight(self, scalar_system):
        eff = effective_matrices(scalar_system, [0.0])
        assert_allclose(eff.Nhat, 0.0)
        assert_allclose(eff.bhat, 0.0)

    def test_two_inputs_weighted_sum(self):
        sys = BilinearSystem(A=np.eye(2), N=[np.eye(2), 2.0 * np.eye(2)],
                             B=np.ones((2, 2)), C=np.ones((1, 2)))
        eff = effective_matrices(sys, [1.0, 3.0])
        assert_allclose(eff.Nhat, 7.0 * np.eye(2))

    def test_exact_linearity_under_binary_scaling(self):
        # alpha = 2 scales floats exactly, so equality is entrywise exact
        rng = np.random.default_rng(9)
        sys = make_stable_system(rng, n=3, m=2)
        mu = rng.standard_normal(2)
        one = effective_matrices(sys, mu)
        two = effective_matrices(sys, 2.0 * mu)
        assert np.array_equal(two.Nhat, 2.0 * one.Nhat)
        assert np.array_equal(two.bhat, 2.0 * one.bhat)

    def test_dimension_mismatch(self, scalar_system):
        with pytest.raises(ValueError):
            effective_matrices(scalar_system, [1.0, 2.0])
