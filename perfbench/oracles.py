"""Independent reference values and the tolerances results are held to.

References use numpy's eigendecomposition and dense solves, never
bivolt.linalg, so a defect in the library's expm, phi1 or LU cannot sit on
both sides of a comparison. Every system the benchmark builds has a
well-conditioned eigenbasis (see inputs.py), which keeps these references
accurate to a few units of roundoff.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

# Tolerances, relative to the largest magnitude of the reference value.
TOL_EXACT = 1e-12    # a CSV value against the same call made in-process
TOL_ALGEBRA = 1e-9   # a closed-form library value against its reference
TOL_SIM = 3e-7       # RK4 against the exact trajectory (RK4 error here: 1e-10 .. 1e-8)
TOL_QUAD = 3e-7      # Gauss-Legendre quadrature against the transfer function
TOL_PROBE = 1e-10    # absolute bound on symmetry_probe's reported deviation
# Substeps per grid step when the reference integrates the pulse's ramp steps.
RAMP_SUBSTEPS = 256


class CheckFailed(Exception):
    """A library result disagreed with its reference beyond the pinned tolerance."""


def rel_err(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        raise CheckFailed(f"shape {got.shape} where {want.shape} was expected")
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    return float(np.max(np.abs(got - want))) / max(scale, 1e-300)


def require(err: float, tol: float, what: str) -> float:
    if not err <= tol:  # also rejects NaN
        raise CheckFailed(f"{what}: relative error {err:.3e} exceeds {tol:.1e}")
    return err


def close(got, want, tol: float, what: str) -> float:
    return require(rel_err(got, want), tol, what)


def expect(ok: bool, what: str) -> None:
    """A pass/fail check that contributes no error figure."""
    if not ok:
        raise CheckFailed(what)


class Eig:
    """Functions of one real matrix through its eigendecomposition."""

    def __init__(self, M):
        self.w, self.V = np.linalg.eig(np.asarray(M, dtype=float))
        self.Vi = np.linalg.inv(self.V)

    def expm(self, t: float = 1.0) -> np.ndarray:
        return ((self.V * np.exp(self.w * t)) @ self.Vi).real

    def phi1_apply(self, t: float, v) -> np.ndarray:
        """phi1(M t) v with phi1(z) = (e^z - 1)/z."""
        z = self.w * t
        safe = np.where(z == 0, 1.0, z)
        f = np.where(z == 0, 1.0, np.expm1(z) / safe)
        return (self.V @ (f * (self.Vi @ v))).real

    def resolvent_apply(self, s: complex, v) -> np.ndarray:
        return self.V @ ((self.Vi @ v) / (s - self.w))


class Reference:
    """Reference values for one explicit bilinear system."""

    def __init__(self, sys):
        self.sys = sys
        self._eigs: dict = {}

    @functools.cached_property
    def A(self) -> Eig:
        return Eig(self.sys.A)

    def _eig(self, key, M) -> Eig:
        if key not in self._eigs:
            self._eigs[key] = Eig(M)
        return self._eigs[key]

    def _nhat(self, weights) -> np.ndarray:
        return np.tensordot(np.asarray(weights, dtype=float), self.sys.N, axes=1)

    # -- kernels and transfer functions -------------------------------------

    def kernel_chain(self, chs, exponents) -> np.ndarray:
        s = self.sys
        v = s.B[:, chs[0] - 1]
        for i in range(1, len(chs)):
            v = s.N[chs[i] - 1] @ (self.A.expm(exponents[i - 1]) @ v)
        return s.C @ (self.A.expm(exponents[-1]) @ v)

    def triangular_kernel(self, chs, ts) -> np.ndarray:
        """Adjusted kernel on a descending tuple with exact ties, t_k > 0."""
        faces = len(set(ts))
        gaps = [ts[i] - ts[i + 1] for i in range(len(ts) - 1)] + [ts[-1]]
        return self.kernel_chain(chs, gaps) / math.factorial(len(ts) + 1 - faces)

    def regular_kernel(self, chs, ts) -> np.ndarray:
        """Adjusted kernel on a tuple with exact zeros among t_1..t_{k-1}, t_k > 0."""
        faces = len(ts) - sum(1 for t in ts[:-1] if t == 0.0)
        return self.kernel_chain(chs, ts) / math.factorial(len(ts) + 1 - faces)

    def symmetric_kernel(self, chs, ts) -> np.ndarray:
        """1/k! times the triangular chain on the descending order of distinct times."""
        order = sorted(range(len(ts)), key=lambda i: -ts[i])
        sts = [ts[i] for i in order]
        gaps = [sts[i] - sts[i + 1] for i in range(len(sts) - 1)] + [sts[-1]]
        return self.kernel_chain([chs[i] for i in order], gaps) / math.factorial(len(ts))

    def tf_chain(self, chs, freqs) -> np.ndarray:
        s = self.sys
        v = self.A.resolvent_apply(freqs[0], s.B[:, chs[0] - 1])
        for i in range(1, len(chs)):
            v = self.A.resolvent_apply(freqs[i], s.N[chs[i] - 1] @ v)
        return s.C @ v

    def tf(self, kind: str, chs, s) -> np.ndarray:
        s = list(s)
        if kind == "regular":
            return self.tf_chain(chs, s)
        if kind == "triangular":
            return self.tf_chain(chs, list(itertools.accumulate(s)))
        return self.tf_symmetric(chs, s)

    def tf_symmetric(self, chs, s) -> np.ndarray:
        """Subset recursion F(T) = R(sum_T s) sum_{i in T} N_{j_i} F(T - {i}).

        F({i}) = R(s_i) b_{j_i} and H_sym = C F(all) / k!: the permutation sum
        the library evaluates, regrouped by the set of arguments used so far.
        """
        sysm, k = self.sys, len(s)
        F = {}
        for size in range(1, k + 1):
            for T in itertools.combinations(range(k), size):
                sigma = sum(s[i] for i in T)
                if size == 1:
                    acc = sysm.B[:, chs[T[0]] - 1].astype(complex)
                else:
                    acc = sum(sysm.N[chs[i] - 1] @ F[tuple(x for x in T if x != i)]
                              for i in T)
                F[T] = self.A.resolvent_apply(sigma, acc)
        return sysm.C @ F[tuple(range(k))] / math.factorial(k)

    # -- closed-form time responses -----------------------------------------

    def impulse(self, mu, t: float, k: int | None = None) -> np.ndarray:
        """Impulse response, or its order-k share when k is given."""
        s = self.sys
        Nhat, bhat = self._nhat(mu), s.B @ np.asarray(mu, dtype=float)
        if k is None:
            E = self._eig(("nhat", tuple(mu)), Nhat)
            core = E.phi1_apply(1.0, bhat) + E.expm() @ s.x0
        else:
            core = bhat / math.factorial(k) + s.x0 / math.factorial(k - 1)
            for _ in range(k - 1):
                core = Nhat @ core
        return s.C @ (self.A.expm(t) @ core)

    def constant_input_state(self, u, t: float, x0) -> np.ndarray:
        """State at time t under the constant input u, from state x0 at time 0."""
        u = np.asarray(u, dtype=float)
        E = self._eig(("const", tuple(u)), self.sys.A + self._nhat(u))
        return t * E.phi1_apply(t, self.sys.B @ u) + E.expm(t) @ x0

    def constant_input_output(self, u, t: float) -> np.ndarray:
        return self.sys.C @ self.constant_input_state(u, t, self.sys.x0)

    def rectangle_pulse_output(self, mu, eps: float, t: float) -> np.ndarray:
        """Output under the exact rectangle mu/eps on [0, eps] (nascent response)."""
        u = np.asarray(mu, dtype=float) / eps
        if t <= eps:
            return self.sys.C @ self.constant_input_state(u, t, self.sys.x0)
        x = self.constant_input_state(u, eps, self.sys.x0)
        return self.sys.C @ (self.A.expm(t - eps) @ x)

    def sampled_pulse_output(self, mu, eps: float, h: float, times) -> np.ndarray:
        """Outputs under delta_eps_signal(grid, eps, mu) with the pulse at t = 0.

        The interpolated input equals mu/eps on [0, eps-h], ramps linearly to
        mu/(2 eps) at eps and to 0 at eps+h, and vanishes after. The constant
        phase and the free tail are closed forms; the two ramp steps are
        integrated with RAMP_SUBSTEPS classical RK4 substeps each.
        """
        s = self.sys
        mu = np.asarray(mu, dtype=float)
        x = self.constant_input_state(mu / eps, eps - h, s.x0)
        for u_a, u_b in ((1.0, 0.5), (0.5, 0.0)):
            x = self._ramp(x, mu * (u_a / eps), mu * (u_b / eps), h)
        out = []
        for t in times:
            if t < eps + h:
                raise ValueError("probe times must follow the pulse")
            out.append(s.C @ (self.A.expm(t - eps - h) @ x))
        return np.array(out)

    def _ramp(self, x, ua, ub, h: float) -> np.ndarray:
        s = self.sys
        Nua, Nub = self._nhat(ua), self._nhat(ub)
        Bua, Bub = s.B @ ua, s.B @ ub
        sub = h / RAMP_SUBSTEPS

        def rhs(theta, v):
            return (s.A @ v + ((1 - theta) * Nua + theta * Nub) @ v
                    + (1 - theta) * Bua + theta * Bub)

        for i in range(RAMP_SUBSTEPS):
            a, mid, b = i / RAMP_SUBSTEPS, (i + 0.5) / RAMP_SUBSTEPS, (i + 1) / RAMP_SUBSTEPS
            k1 = rhs(a, x)
            k2 = rhs(mid, x + 0.5 * sub * k1)
            k3 = rhs(mid, x + 0.5 * sub * k2)
            k4 = rhs(b, x + sub * k3)
            x = x + (sub / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return x


def roc_margin(kind: str, s, abscissa: float) -> float:
    """Distance to the region-of-convergence boundary, from a known abscissa."""
    s = list(s)
    if kind == "regular":
        sums = s
    elif kind == "triangular":
        sums = list(itertools.accumulate(s))
    else:
        sums = [sum(c) for r in range(1, len(s) + 1)
                for c in itertools.combinations(s, r)]
    return min(z.real for z in sums) - abscissa
