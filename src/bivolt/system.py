"""Bilinear state-space model, validation, implicit-form folding, effective excitation.

The model is

    E x'(t) = A x(t) + sum_j N_j u_j(t) x(t) + B u(t),    x(0) = x0,
      y(t)  = C x(t),

with E optional (identity when absent). Every function that takes a system
refuses one that still carries E; fold E eagerly with :func:`fold_implicit`.
The refusal, require_explicit, sits in the helpers the numerics go through:
_channels_tuple, effective_matrices and response._rk4, plus roc_margin and
aux_output_2d, which use none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import SingularMatrixError, _logarithmic_norm, solve

__all__ = [
    "BilinearSystem",
    "EffectiveExcitation",
    "validate",
    "fold_implicit",
    "effective_matrices",
]


# The closed-form responses apply e^{At}, the transfer functions solve their
# certified shifts and the Laplace quadrature sums its axes in A's eigenbasis
# only where the eigenvector matrix V has kappa_2(V) <= _EIGENBASIS_COND.
# Against a 35-digit oracle on 150 random stable systems (n = 2..8), the
# modal error was a median 1.0x the expm path's at kappa_2(V) <= 2, and 2.4x
# to 4.2x above (CHANGES.md).
_EIGENBASIS_COND = 2.0


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Eigenbasis(NamedTuple):
    """A = V diag(w) V^{-1} with kappa_2(V) <= _EIGENBASIS_COND, and C V."""

    w: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray
    CV: np.ndarray


@dataclass(frozen=True)
class BilinearSystem:
    """Dense bilinear system (A, N_1..N_m, B, C, x0, optional E).

    ``N`` is stored as an (m, n, n) stack; a single 2-D array is promoted to
    m = 1. ``x0`` defaults to zeros. Construction copies the arrays and makes
    the copies read-only, which keeps the cached quantities valid: the
    spectral abscissa, the two numbers that certify resolvent shifts, the
    quadrature growth per (T, panels), the 2-norms of C and the N_j, and
    the eigenbasis of A, in which the closed-form responses apply e^{At},
    the transfer functions solve their certified shifts and the Laplace
    quadrature sums its axes over scalar exponentials. It only coerces
    shapes, so call :func:`validate` for the invariant violations.
    """

    A: np.ndarray
    N: np.ndarray
    B: np.ndarray
    C: np.ndarray
    x0: np.ndarray | None = None
    E: np.ndarray | None = None

    def __post_init__(self):
        A = np.atleast_2d(np.array(self.A, dtype=float))
        N = np.array(self.N, dtype=float)
        if N.ndim == 2:
            N = N[None, :, :]
        B = np.atleast_2d(np.array(self.B, dtype=float))
        C = np.atleast_2d(np.array(self.C, dtype=float))
        x0 = self.x0
        x0 = np.zeros(A.shape[0]) if x0 is None else np.array(x0, dtype=float).ravel()
        E = self.E
        if E is not None:
            E = np.atleast_2d(np.array(E, dtype=float))
        for name, value in (("A", A), ("N", N), ("B", B), ("C", C),
                            ("x0", x0), ("E", E)):
            if value is not None:
                object.__setattr__(self, name, _freeze(value))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @cached_property
    def spectral_abscissa(self) -> float:
        """Largest real part of the eigenvalues of A (computed once; A is read-only)."""
        return float(np.max(np.linalg.eigvals(self.A).real))

    @cached_property
    def _resolvent_bound(self) -> tuple[float, float]:
        """(mu2(A), ||A||_inf), by which the transfer functions' solves certify
        their shifts (linalg._certified); A is read-only."""
        return _logarithmic_norm(self.A)

    @cached_property
    def _quadrature_growth(self) -> dict[tuple[float, int], float]:
        """laplace_quadrature's transient growth per (T, panels); A is read-only."""
        return {}

    @cached_property
    def _norms2(self) -> tuple[float, np.ndarray]:
        """2-norms of C and of each N_j, for the quadrature's tail bound; both are read-only."""
        return np.linalg.norm(self.C, 2), np.linalg.norm(self.N, 2, axis=(1, 2))

    @cached_property
    def _eigenbasis(self) -> _Eigenbasis | None:
        """A's eigenbasis, or None past _EIGENBASIS_COND.

        Formed on the first closed-form response, transfer function or
        Laplace quadrature that asks for it (A and C are read-only): the
        closed forms apply e^{At} in it, the transfer functions solve their
        certified shifts in it, and the quadrature sums its axes in it.
        None also where eig refuses A (not finite, or no convergence), which
        leaves the error to expm or to the resolvent check.
        """
        try:
            w, V = np.linalg.eig(self.A)
        except np.linalg.LinAlgError:
            return None
        if not np.linalg.cond(V) <= _EIGENBASIS_COND:
            return None
        return _Eigenbasis(w, V, np.linalg.inv(V), self.C @ V)


@dataclass(frozen=True)
class EffectiveExcitation:
    """Impulse-weighted excitation matrices Nhat = sum_j N_j mu_j, bhat = B mu."""

    Nhat: np.ndarray
    bhat: np.ndarray


def _channels_tuple(sys: BilinearSystem, channels, k: int) -> tuple[int, ...]:
    """Check an explicit sys and an order-k tuple of 1-based channels against sys.m."""
    require_explicit(sys)
    chs = tuple(int(j) for j in np.atleast_1d(channels))
    if len(chs) != k:
        raise ValueError(f"channel tuple has length {len(chs)}; expected k = {k}")
    for j in chs:
        if not 1 <= j <= sys.m:
            raise ValueError(f"channel index {j} outside 1..{sys.m}")
    return chs


def _chain(sys: BilinearSystem, channels: tuple[int, ...], factor) -> np.ndarray:
    """C X_k N_{j_k} ... N_{j_2} X_1 b_{j_1}, right to left, with X_i v = factor(i, v).

    The one product behind kernels (X_i = e^{A tau_i}), transfer functions
    (X_i = (sigma_i I - A)^{-1}) and the Laplace quadrature (X_i its Gauss-
    Legendre axis sums, applied to v node by node without forming X_i); i
    counts from 0.
    """
    v = factor(0, sys.B[:, channels[0] - 1])
    for i in range(1, len(channels)):
        v = factor(i, sys.N[channels[i] - 1] @ v)
    return sys.C @ v


def validate(sys: BilinearSystem) -> list[str]:
    """Return every invariant violation as a message; empty list when valid."""
    violations: list[str] = []
    n = sys.A.shape[0]
    if sys.A.ndim != 2 or sys.A.shape != (n, n):
        violations.append(f"A must be square, got shape {sys.A.shape}")
    if n < 1:
        violations.append("state dimension n must be >= 1")
    m = sys.B.shape[1] if sys.B.ndim == 2 else 0
    if sys.B.ndim != 2 or sys.B.shape[0] != n:
        violations.append(f"B has shape {sys.B.shape}; expected ({n}, m)")
    if m < 1:
        violations.append("input dimension m must be >= 1")
    if sys.N.ndim != 3 or sys.N.shape[1:] != (n, n):
        violations.append(f"N has shape {sys.N.shape}; expected (m, {n}, {n})")
    elif m >= 1 and sys.N.shape[0] != m:
        violations.append(
            f"N holds {sys.N.shape[0]} matrices; expected m = {m}")
    p = sys.C.shape[0] if sys.C.ndim == 2 else 0
    if sys.C.ndim != 2 or sys.C.shape[1] != n:
        violations.append(f"C has shape {sys.C.shape}; expected (p, {n})")
    if p < 1:
        violations.append("output dimension p must be >= 1")
    if sys.x0.shape != (n,):
        violations.append(f"x0 has shape {sys.x0.shape}; expected ({n},)")
    for name in ("A", "N", "B", "C", "x0"):
        arr = getattr(sys, name)
        if arr.size and not np.isfinite(arr).all():
            violations.append(f"{name} has non-finite entries")
    if sys.E is not None:
        if sys.E.shape != (n, n):
            violations.append(f"E has shape {sys.E.shape}; expected ({n}, {n})")
        elif not np.isfinite(sys.E).all():
            violations.append("E has non-finite entries")
        else:
            try:
                solve(sys.E, np.eye(n))
            except SingularMatrixError as exc:
                violations.append(f"E is {exc}")
    return violations


def require_explicit(sys: BilinearSystem) -> None:
    """Raise when a system still carries E; callers expect explicit form."""
    if sys.E is not None:
        raise ValueError(
            "system is in implicit form; apply fold_implicit(sys) first")


def fold_implicit(sys: BilinearSystem) -> BilinearSystem:
    """Fold a nonsingular E into the system: A, N_j, B -> E^{-1}A, E^{-1}N_j, E^{-1}B."""
    if sys.E is None:
        return sys
    n = sys.n
    stacked = np.hstack([sys.A] + [sys.N[j] for j in range(sys.N.shape[0])] + [sys.B])
    try:
        folded = solve(sys.E, stacked)
    except SingularMatrixError as exc:
        raise ValueError("cannot fold implicit system: E is singular") from exc
    A = folded[:, :n]
    N = np.stack([folded[:, n * (j + 1): n * (j + 2)]
                  for j in range(sys.N.shape[0])])
    B = folded[:, n * (sys.N.shape[0] + 1):]
    return BilinearSystem(A=A, N=N, B=B, C=sys.C, x0=sys.x0, E=None)


def effective_matrices(sys: BilinearSystem, mu) -> EffectiveExcitation:
    """Build Nhat = sum_j N_j mu_j and bhat = B mu for impulse weights mu."""
    require_explicit(sys)
    weights = np.atleast_1d(np.asarray(mu, dtype=float))
    if weights.shape != (sys.m,):
        raise ValueError(
            f"mu has shape {weights.shape}; expected ({sys.m},)")
    if not np.isfinite(weights).all():
        raise ValueError("mu has non-finite entries")
    Nhat = (weights @ sys.N.reshape(sys.m, -1)).reshape(sys.n, sys.n)
    bhat = sys.B @ weights
    return EffectiveExcitation(Nhat=Nhat, bhat=bhat)
