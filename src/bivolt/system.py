"""Bilinear state-space model, validation, implicit-form folding, effective excitation.

The model is

    E x'(t) = A x(t) + sum_j N_j u_j(t) x(t) + B u(t),    x(0) = x0,
      y(t)  = C x(t),

with E optional (identity when absent). All downstream numerics expect an
explicit system; fold E eagerly with :func:`fold_implicit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import SingularMatrixError, solve

__all__ = [
    "BilinearSystem",
    "EffectiveExcitation",
    "validate",
    "fold_implicit",
    "effective_matrices",
    "require_explicit",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BilinearSystem:
    """Dense bilinear system (A, N_1..N_m, B, C, x0, optional E).

    ``N`` is stored as an (m, n, n) stack; a single 2-D array is promoted to
    m = 1. ``x0`` defaults to zeros. Construction copies the arrays and makes
    the copies read-only, which keeps the cached spectral abscissa valid; it
    only coerces shapes, so call :func:`validate` for the invariant violations.
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


@dataclass(frozen=True)
class EffectiveExcitation:
    """Impulse-weighted excitation matrices Nhat = sum_j N_j mu_j, bhat = B mu."""

    Nhat: np.ndarray
    bhat: np.ndarray


def _channels_tuple(sys: BilinearSystem, channels, k: int) -> tuple[int, ...]:
    """Check an order-k tuple of 1-based input channels against sys.m."""
    chs = tuple(int(j) for j in np.atleast_1d(channels))
    if len(chs) != k:
        raise ValueError(f"channel tuple has length {len(chs)}; expected k = {k}")
    for j in chs:
        if not 1 <= j <= sys.m:
            raise ValueError(f"channel index {j} outside 1..{sys.m}")
    return chs


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
        if arr.size and not np.all(np.isfinite(arr)):
            violations.append(f"{name} has non-finite entries")
    if sys.E is not None:
        if sys.E.shape != (n, n):
            violations.append(f"E has shape {sys.E.shape}; expected ({n}, {n})")
        elif not np.all(np.isfinite(sys.E)):
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
    weights = np.atleast_1d(np.asarray(mu, dtype=float))
    if weights.shape != (sys.m,):
        raise ValueError(
            f"mu has shape {weights.shape}; expected ({sys.m},)")
    if not np.all(np.isfinite(weights)):
        raise ValueError("mu has non-finite entries")
    Nhat = np.tensordot(weights, sys.N, axes=1)
    bhat = sys.B @ weights
    return EffectiveExcitation(Nhat=Nhat, bhat=bhat)
