"""Volterra kernels of bilinear systems with boundary-adjusted values.

Order-k triangular kernels live on the ordered simplex t_1 >= ... >= t_k > 0
and regular kernels on the orthant t_1, ..., t_{k-1} >= 0, t_k > 0. On
boundary faces, where the plain product formulas are ambiguous, the value is
the interior limit scaled by 1/(k+1-n)! with n the dimension of the face the
time tuple occupies. Channel indices are 1-based (j_i in 1..m), matching the
usual numbering of system inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import expm
from .system import BilinearSystem, _channels_tuple, require_explicit

__all__ = [
    "DEFAULT_TIE_TOL",
    "RegionClass",
    "classify_triangular",
    "classify_regular",
    "eval_triangular",
    "eval_regular",
    "eval_symmetric",
    "triangular_coords_from_regular",
]

# Relative tie tolerance: two times coincide when |a-b| <= tol*max(1,|a|,|b|).
DEFAULT_TIE_TOL = 1e-9


@dataclass(frozen=True)
class RegionClass:
    """Region a time tuple occupies: kind, dimension n, and factor 1/(k+1-n)!."""

    kind: str  # "interior" | "surface" | "zero"
    n: int
    factor: float


def _tol_at(a: float, b: float, tol: float) -> float:
    return tol * max(1.0, abs(a), abs(b))


def _times_tuple(times) -> tuple[float, ...]:
    ts = tuple(float(t) for t in np.atleast_1d(np.asarray(times, dtype=float)))
    if not ts:
        raise ValueError("time tuple must have order k >= 1")
    return ts


def classify_triangular(times, tol: float = DEFAULT_TIE_TOL) -> RegionClass:
    """Classify a tuple against the ordered simplex t_1 >= ... >= t_k > 0."""
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    ts = _times_tuple(times)
    k = len(ts)
    if ts[-1] <= _tol_at(ts[-1], 0.0, tol):
        return RegionClass("zero", 0, 0.0)
    distinct = 1
    for a, b in zip(ts, ts[1:]):
        gap = a - b
        if gap < -_tol_at(a, b, tol):
            return RegionClass("zero", 0, 0.0)
        if gap > _tol_at(a, b, tol):
            distinct += 1
    factor = 1.0 / math.factorial(k + 1 - distinct)
    kind = "interior" if distinct == k else "surface"
    return RegionClass(kind, distinct, factor)


def classify_regular(times, tol: float = DEFAULT_TIE_TOL) -> RegionClass:
    """Classify a tuple against the orthant t_1..t_{k-1} >= 0, t_k > 0."""
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    ts = _times_tuple(times)
    k = len(ts)
    if ts[-1] <= _tol_at(ts[-1], 0.0, tol):
        return RegionClass("zero", 0, 0.0)
    zeros = 0
    for t in ts[:-1]:
        if t < -_tol_at(t, 0.0, tol):
            return RegionClass("zero", 0, 0.0)
        if abs(t) <= _tol_at(t, 0.0, tol):
            zeros += 1
    n = k - zeros
    factor = 1.0 / math.factorial(k + 1 - n)
    kind = "interior" if n == k else "surface"
    return RegionClass(kind, n, factor)


def _chain(sys: BilinearSystem, channels: tuple[int, ...],
           exponents: tuple[float, ...]) -> np.ndarray:
    """C e^{A e_k} N_{j_k} ... N_{j_2} e^{A e_1} b_{j_1} evaluated right-to-left."""
    v = sys.B[:, channels[0] - 1]
    for i in range(1, len(channels)):
        v = expm(sys.A, exponents[i - 1]) @ v
        v = sys.N[channels[i] - 1] @ v
    v = expm(sys.A, exponents[-1]) @ v
    return sys.C @ v


def _triangular_exponents(ts: tuple[float, ...]) -> tuple[float, ...]:
    # exponent slots right-to-left: t_1 - t_2, ..., t_{k-1} - t_k, then t_k
    return tuple(ts[i] - ts[i + 1] for i in range(len(ts) - 1)) + (ts[-1],)


def eval_triangular(sys: BilinearSystem, channels, times,
                    tol: float = DEFAULT_TIE_TOL) -> np.ndarray:
    """Adjusted triangular kernel value, a p-vector (zero outside the simplex)."""
    require_explicit(sys)
    ts = _times_tuple(times)
    chs = _channels_tuple(sys, channels, len(ts))
    region = classify_triangular(ts, tol)
    if region.kind == "zero":
        return np.zeros(sys.p)
    return region.factor * _chain(sys, chs, _triangular_exponents(ts))


def eval_regular(sys: BilinearSystem, channels, times,
                 tol: float = DEFAULT_TIE_TOL) -> np.ndarray:
    """Adjusted regular kernel value, a p-vector (zero outside the orthant)."""
    require_explicit(sys)
    ts = _times_tuple(times)
    chs = _channels_tuple(sys, channels, len(ts))
    region = classify_regular(ts, tol)
    if region.kind == "zero":
        return np.zeros(sys.p)
    return region.factor * _chain(sys, chs, ts)


def eval_symmetric(sys: BilinearSystem, channels, times,
                   tol: float = DEFAULT_TIE_TOL) -> np.ndarray:
    """Symmetric kernel: 1/k! times the triangular chain on descending-sorted times.

    Channel indices travel with their time arguments, so the value is invariant
    under simultaneous permutations of (times, channels). Ties are broken by
    channel index to keep the evaluation order deterministic.
    """
    require_explicit(sys)
    ts = _times_tuple(times)
    chs = _channels_tuple(sys, channels, len(ts))
    for t in ts:
        if t <= _tol_at(t, 0.0, tol):
            raise ValueError(f"symmetric kernel needs positive times, got {t}")
    order = sorted(range(len(ts)), key=lambda i: (-ts[i], chs[i]))
    sorted_ts = tuple(ts[i] for i in order)
    sorted_chs = tuple(chs[i] for i in order)
    scale = 1.0 / math.factorial(len(ts))
    return scale * _chain(sys, sorted_chs, _triangular_exponents(sorted_ts))


def triangular_coords_from_regular(times) -> tuple[float, ...]:
    """Cumulative sums tau_i = t_i + ... + t_k mapping regular to triangular coordinates."""
    ts = _times_tuple(times)
    acc = 0.0
    out = []
    for t in reversed(ts):
        acc += t
        out.append(acc)
    return tuple(reversed(out))
