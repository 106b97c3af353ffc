"""Multidimensional transfer functions of bilinear systems.

Regular transfer functions chain single-frequency resolvents,
triangular ones chain resolvents at the partial sums s_1 + ... + s_i, and the
symmetric one averages the triangular value over all argument permutations.
Frequency tuples are sequences of complex numbers; channels are 1-based.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import resolvent_apply
from .system import BilinearSystem, _channels_tuple, require_explicit

__all__ = [
    "MAX_PERMUTATION_ORDER",
    "TransferValue",
    "eval_tf_regular",
    "eval_tf_triangular",
    "eval_tf_symmetric",
    "roc_margin",
    "output_transform",
]

# Permutation enumeration refuses beyond this order (k! blowup).
MAX_PERMUTATION_ORDER = 8


@dataclass(frozen=True)
class TransferValue:
    """Transfer-function value: complex p-vector plus the kind and channels used."""

    value: np.ndarray
    kind: str  # "triangular" | "regular" | "symmetric"
    channels: tuple[int, ...]


def _freq_tuple(s) -> tuple[complex, ...]:
    ss = tuple(complex(z) for z in np.atleast_1d(np.asarray(s, dtype=complex)))
    if not ss:
        raise ValueError("frequency tuple must have order k >= 1")
    for z in ss:
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError("frequency tuple has non-finite components")
    return ss


def _resolvent_chain(sys: BilinearSystem, channels: tuple[int, ...],
                     freqs: tuple[complex, ...]) -> np.ndarray:
    v = sys.B[:, channels[0] - 1].astype(complex)
    v = resolvent_apply(sys.A, freqs[0], v)
    for i in range(1, len(channels)):
        v = sys.N[channels[i] - 1] @ v
        v = resolvent_apply(sys.A, freqs[i], v)
    return sys.C @ v


def _partial_sums(ss: tuple[complex, ...]) -> tuple[complex, ...]:
    return tuple(itertools.accumulate(ss))


def eval_tf_regular(sys: BilinearSystem, channels, s) -> TransferValue:
    """C (s_k I - A)^{-1} N_{j_k} ... N_{j_2} (s_1 I - A)^{-1} b_{j_1}."""
    require_explicit(sys)
    ss = _freq_tuple(s)
    chs = _channels_tuple(sys, channels, len(ss))
    return TransferValue(_resolvent_chain(sys, chs, ss), "regular", chs)


def eval_tf_triangular(sys: BilinearSystem, channels, s) -> TransferValue:
    """Triangular transfer function: resolvents at the partial sums s_1+...+s_i."""
    require_explicit(sys)
    ss = _freq_tuple(s)
    chs = _channels_tuple(sys, channels, len(ss))
    return TransferValue(_resolvent_chain(sys, chs, _partial_sums(ss)),
                         "triangular", chs)


def eval_tf_symmetric(sys: BilinearSystem, channels, s) -> TransferValue:
    """1/k! sum of the triangular transfer function over all argument permutations.

    Channels permute together with the frequencies. Refuses k > 8.
    """
    require_explicit(sys)
    ss = _freq_tuple(s)
    chs = _channels_tuple(sys, channels, len(ss))
    k = len(ss)
    if k > MAX_PERMUTATION_ORDER:
        raise ValueError(
            f"symmetric transfer function capped at k <= {MAX_PERMUTATION_ORDER}, got k = {k}")
    acc = np.zeros(sys.p, dtype=complex)
    for perm in itertools.permutations(range(k)):
        pss = tuple(ss[i] for i in perm)
        pchs = tuple(chs[i] for i in perm)
        acc += _resolvent_chain(sys, pchs, _partial_sums(pss))
    return TransferValue(acc / math.factorial(k), "symmetric", chs)


def _constraints(ss: tuple[complex, ...], kind: str) -> tuple[complex, ...]:
    """Laplace exponents whose real parts must all exceed the spectral abscissa."""
    if kind == "regular":
        return ss
    if kind == "triangular":
        return _partial_sums(ss)
    if kind == "symmetric":
        k = len(ss)
        if k > MAX_PERMUTATION_ORDER:
            raise ValueError(
                f"symmetric region check capped at k <= {MAX_PERMUTATION_ORDER}")
        out = []
        for perm in itertools.permutations(range(k)):
            out.extend(_partial_sums(tuple(ss[i] for i in perm)))
        return tuple(out)
    raise ValueError(f"unknown transfer kind {kind!r}")


def roc_margin(sys: BilinearSystem, s, kind: str) -> float:
    """Distance of s from the region-of-convergence boundary (positive = inside).

    Regular transforms need Re(s_i) above the spectral abscissa of A;
    triangular ones need every partial sum Re(s_1 + ... + s_i) above it.
    """
    require_explicit(sys)
    ss = _freq_tuple(s)
    return min(z.real for z in _constraints(ss, kind)) - sys.spectral_abscissa


def _evaluator(kind: str):
    """Transfer-function evaluator of a kind name."""
    # Built per call, so a wrapper later bound to these names (perfbench's
    # tracer) also sees the calls made through this table.
    evaluators = {"regular": eval_tf_regular, "triangular": eval_tf_triangular,
                  "symmetric": eval_tf_symmetric}
    if kind not in evaluators:
        raise ValueError(f"unknown transfer kind {kind!r}")
    return evaluators[kind]


def _per_channel(U, m: int):
    if callable(U):
        return [U] * m
    evaluators = list(U)
    if len(evaluators) != m:
        raise ValueError(f"need {m} per-channel evaluators, got {len(evaluators)}")
    if not all(callable(u) for u in evaluators):
        raise ValueError("input transform evaluators must be callable")
    return evaluators


def output_transform(sys: BilinearSystem, channels, s, kind: str, U) -> np.ndarray:
    """Frequency-domain output of one order-k channel term.

    Triangular/symmetric kinds multiply the transfer value by
    U_{j_1}(s_1) ... U_{j_k}(s_k); the regular kind uses the shifted inputs
    U_{j_1}(s_1) U_{j_2}(s_2 - s_1) ... U_{j_k}(s_k - s_{k-1}).
    ``U`` is a single callable applied to every channel, or one per channel.
    """
    require_explicit(sys)
    ss = _freq_tuple(s)
    chs = _channels_tuple(sys, channels, len(ss))
    evaluators = _per_channel(U, sys.m)
    tv = _evaluator(kind)(sys, chs, ss)
    args = ss
    if kind == "regular":
        args = (ss[0],) + tuple(ss[i] - ss[i - 1] for i in range(1, len(ss)))
    factor = 1.0 + 0.0j
    for j, arg in zip(chs, args):
        factor *= complex(evaluators[j - 1](arg))
    return tv.value * factor
