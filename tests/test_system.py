import numpy as np
import pytest
from numpy.testing import assert_allclose

from bivolt import (BilinearSystem, TimeGrid, effective_matrices, fold_implicit,
                    ode_direct, sine_signal, validate)

from conftest import make_stable_system


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

    def test_fold_then_simulate_matches_implicit_integration(self):
        # oracle: RK4 that solves E xdot = Ax + (sum N u) x + Bu per stage
        rng = np.random.default_rng(42)
        n = 4
        base = make_stable_system(rng, n=n, m=1, p=1, with_x0=True)
        E = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        implicit = BilinearSystem(A=base.A, N=base.N, B=base.B, C=base.C,
                                  x0=base.x0, E=E)
        grid = TimeGrid(0.0, 3.0, 1e-3)
        u = sine_signal(grid, [1.0])
        folded = fold_implicit(implicit)
        direct = ode_direct(folded, u, grid).values[:, 0]

        times = grid.times()
        uu = u.at_many(times)[:, 0]
        um = u.at_many(times[:-1] + grid.dt / 2)[:, 0]
        x = implicit.x0.copy()
        ys = [(implicit.C @ x)[0]]
        h = grid.dt
        for i in range(grid.nodes - 1):
            def f(uv, xv):
                rhs = implicit.A @ xv + uv * (implicit.N[0] @ xv) + implicit.B[:, 0] * uv
                return np.linalg.solve(E, rhs)
            k1 = f(uu[i], x)
            k2 = f(um[i], x + h / 2 * k1)
            k3 = f(um[i], x + h / 2 * k2)
            k4 = f(uu[i + 1], x + h * k3)
            x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            ys.append((implicit.C @ x)[0])
        ys = np.asarray(ys)
        scale = np.linalg.norm(ys)
        assert np.linalg.norm(direct - ys) <= 1e-8 * scale


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
