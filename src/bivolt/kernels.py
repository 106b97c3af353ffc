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


def _times_tuple(times) -> tuple[float, ...]:
    ts = tuple(float(t) for t in np.atleast_1d(np.asarray(times, dtype=float)))
    if not ts:
        raise ValueError("time tuple must have order k >= 1")
    return ts


def _slots(ts: tuple[float, ...], triangular: bool):
    """Exponent slots of a time tuple, right-to-left, and the scale of each slot.

    Triangular slots are the gaps t_1 - t_2, ..., t_{k-1} - t_k, then t_k, with
    scale max(1, |a|, |b|) for the gap a - b; regular slots are the t_i with
    scale max(1, |t_i|).
    """
    if not triangular:
        return ts, [max(1.0, abs(t)) for t in ts]
    pairs = list(zip(ts, ts[1:] + (0.0,)))
    return tuple(a - b for a, b in pairs), [max(1.0, abs(a), abs(b)) for a, b in pairs]


def _face(slots, scales, tol: float) -> RegionClass:
    """The face rule: region of a tuple from its k exponent slots.

    A slot below -tol * scale, or a last slot (t_k) not above tol * scale,
    puts the tuple outside the domain. Otherwise n, the number of slots
    above tol * scale, is the dimension of its face, and the factor is
    1/(k+1-n)!. For the triangular kind this factor equals the
    symmetrisation of the triangular kernel only when at most one group of
    times ties: at t = (1, 1, 0.5, 0.5) eval_symmetric is 1.5 times the
    symmetrised eval_triangular.
    """
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    bounds = [tol * scale for scale in scales]
    if slots[-1] <= bounds[-1] or any(x < -b for x, b in zip(slots, bounds)):
        return RegionClass("zero", 0, 0.0)
    k = len(slots)
    n = sum(x > b for x, b in zip(slots, bounds))
    return RegionClass("interior" if n == k else "surface", n,
                       1.0 / math.factorial(k + 1 - n))


def classify_triangular(times, tol: float = DEFAULT_TIE_TOL) -> RegionClass:
    """Classify a tuple against the ordered simplex t_1 >= ... >= t_k > 0."""
    return _face(*_slots(_times_tuple(times), True), tol)


def classify_regular(times, tol: float = DEFAULT_TIE_TOL) -> RegionClass:
    """Classify a tuple against the orthant t_1..t_{k-1} >= 0, t_k > 0."""
    return _face(*_slots(_times_tuple(times), False), tol)


def _chain(sys: BilinearSystem, channels: tuple[int, ...],
           exponents: tuple[float, ...]) -> np.ndarray:
    """C e^{A e_k} N_{j_k} ... N_{j_2} e^{A e_1} b_{j_1} evaluated right-to-left."""
    v = sys.B[:, channels[0] - 1]
    for i in range(1, len(channels)):
        v = expm(sys.A, exponents[i - 1]) @ v
        v = sys.N[channels[i] - 1] @ v
    v = expm(sys.A, exponents[-1]) @ v
    return sys.C @ v


def _eval_adjusted(sys: BilinearSystem, channels, times, tol: float,
                   triangular: bool) -> np.ndarray:
    """Adjusted kernel value of either kind: the face factor times the chain."""
    require_explicit(sys)
    ts = _times_tuple(times)
    chs = _channels_tuple(sys, channels, len(ts))
    slots, scales = _slots(ts, triangular)
    region = _face(slots, scales, tol)
    if region.kind == "zero":
        return np.zeros(sys.p)
    return region.factor * _chain(sys, chs, slots)


def eval_triangular(sys: BilinearSystem, channels, times,
                    tol: float = DEFAULT_TIE_TOL) -> np.ndarray:
    """Adjusted triangular kernel value, a p-vector (zero outside the simplex)."""
    return _eval_adjusted(sys, channels, times, tol, triangular=True)


def eval_regular(sys: BilinearSystem, channels, times,
                 tol: float = DEFAULT_TIE_TOL) -> np.ndarray:
    """Adjusted regular kernel value, a p-vector (zero outside the orthant)."""
    return _eval_adjusted(sys, channels, times, tol, triangular=False)


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
        if t <= tol * max(1.0, abs(t)):
            raise ValueError(f"symmetric kernel needs positive times, got {t}")
    order = sorted(range(len(ts)), key=lambda i: (-ts[i], chs[i]))
    sorted_ts = tuple(ts[i] for i in order)
    sorted_chs = tuple(chs[i] for i in order)
    scale = 1.0 / math.factorial(len(ts))
    return scale * _chain(sys, sorted_chs, _slots(sorted_ts, True)[0])


def triangular_coords_from_regular(times) -> tuple[float, ...]:
    """Cumulative sums tau_i = t_i + ... + t_k mapping regular to triangular coordinates."""
    ts = _times_tuple(times)
    acc = 0.0
    out = []
    for t in reversed(ts):
        acc += t
        out.append(acc)
    return tuple(reversed(out))
