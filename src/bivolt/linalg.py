"""Dense linear-algebra kernels: matrix exponential, phi1 application, resolvent solves.

Everything operates on plain numpy arrays (row-major, float64/complex128).
The matrix exponential is scaling-and-squaring with a degree-13 Pade
approximant; it raises FloatingPointError instead of returning inf or NaN.
The affine flow e^M x0 + phi1(M) b is one exponential of [[M, b], [0, 0]]
applied to [x0; 1], and phi1_apply is that flow from x0 = 0. Linear solves
factorise once with LAPACK and refuse a matrix whose condition number
reaches 1/PIVOT_RTOL, so a frequency on the spectrum or a singular E is
reported instead of surfacing as garbage downstream.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PoleHitError",
    "SingularMatrixError",
    "expm",
    "phi1_apply",
    "resolvent_apply",
    "solve",
]

# Degree-13 Pade coefficients and the largest 1-norm for which the unscaled
# approximant stays at machine accuracy.
_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152

# solve refuses a matrix whose condition number reaches 1/PIVOT_RTOL.
PIVOT_RTOL = 1e-12


class SingularMatrixError(ValueError):
    """A solve met a matrix that is singular to working precision."""


class PoleHitError(ValueError):
    """A resolvent solve hit (numerically) an eigenvalue of the system matrix.

    Carries the offending frequency in ``s``.
    """

    def __init__(self, s: complex):
        super().__init__(f"resolvent pole hit: s = {s} lies on the spectrum")
        self.s = s


def _square_array(M, name: str = "matrix") -> np.ndarray:
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError(f"{name} has non-finite entries")
    if not np.issubdtype(A.dtype, np.complexfloating):
        A = A.astype(float)
    return A


def _pade13(A: np.ndarray):
    b = _PADE13_B
    n = A.shape[0]
    ident = np.eye(n, dtype=A.dtype)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    return U, V


def expm(M, t: float = 1.0) -> np.ndarray:
    """Evaluate e^{M t} by scaling-and-squaring with the degree-13 Pade approximant.

    Returns the identity exactly when M t = 0. Raises FloatingPointError when
    M t or the result overflows.
    """
    A = _square_array(M, "expm argument")
    if not np.isfinite(t):
        raise ValueError("expm time must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        A = A * t
        nrm = np.linalg.norm(A, 1) if A.size else 0.0
    if not math.isfinite(nrm):
        raise FloatingPointError(f"expm overflow: ||M t||_1 is not finite (t = {t!r})")
    if nrm == 0.0:
        return np.eye(A.shape[0], dtype=A.dtype)
    squarings = 0
    if nrm > _THETA13:
        squarings = int(math.ceil(math.log2(nrm / _THETA13)))
        A = A / (2.0 ** squarings)
    U, V = _pade13(A)
    R = np.linalg.solve(V - U, V + U)
    if squarings:  # without squaring, ||M t||_1 <= _THETA13 keeps R finite
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(squarings):
                R = R @ R
        if not np.all(np.isfinite(R)):
            raise FloatingPointError(
                f"expm overflow: e^(M t) with ||M t||_1 = {nrm:.3e} is not "
                f"finite after {squarings} squarings")
    return R


def _affine_flow(M: np.ndarray, b: np.ndarray, x0) -> np.ndarray:
    """e^M x0 + phi1(M) b, as e^{[[M, b], [0, 0]]} [x0; 1]; valid for singular M."""
    W = np.zeros((len(b) + 1,) * 2, dtype=np.result_type(M, b, float))
    W[:-1, :-1], W[:-1, -1] = M, b
    return (expm(W) @ np.append(x0, 1.0))[:-1]


def phi1_apply(M, v) -> np.ndarray:
    """Apply phi1(M) = sum_{k>=1} M^{k-1}/k! to a vector: the affine flow from 0."""
    A = _square_array(M, "phi1 argument")
    vec = np.asarray(v)
    if vec.shape != (A.shape[0],):
        raise ValueError(
            f"phi1 vector has shape {vec.shape}; expected ({A.shape[0]},)")
    return _affine_flow(A, vec, np.zeros(A.shape[0]))


def solve(K, B) -> np.ndarray:
    """Solve K X = B for one or many right-hand sides.

    K is factorised once by LAPACK (``inv``). It counts as singular when LAPACK
    meets an exact zero pivot or when ||K||_inf ||K^{-1}||_inf reaches
    1/PIVOT_RTOL. This catches every K whose LU factorisation with partial
    pivoting has a pivot |u_jj| <= PIVOT_RTOL ||K||_inf: the x with x_j = 1,
    x_i = 0 for i > j and U x = u_jj e_j has ||K x||_inf <= |u_jj|, since the
    multipliers are at most 1 in size, so ||K^{-1}||_inf >= 1/|u_jj|.
    """
    M = _square_array(K, "solve argument")
    try:
        inverse = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("singular: exact zero pivot") from exc
    cond = np.linalg.norm(M, np.inf) * np.linalg.norm(inverse, np.inf)
    if not cond < 1.0 / PIVOT_RTOL:
        raise SingularMatrixError(
            f"singular: condition number {cond:.3e} reaches {1.0 / PIVOT_RTOL:.0e}")
    return inverse @ np.asarray(B)


def resolvent_apply(A, s, V) -> np.ndarray:
    """Solve (s I - A) X = V; raises :class:`PoleHitError` when s sits on the spectrum."""
    Amat = _square_array(A, "resolvent matrix")
    s = complex(s)
    K = s * np.eye(Amat.shape[0]) - Amat
    try:
        return solve(K, np.asarray(V, dtype=complex))
    except SingularMatrixError as exc:
        raise PoleHitError(s) from exc
