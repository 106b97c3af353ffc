"""Multidimensional transfer functions of bilinear systems.

Regular transfer functions chain single-frequency resolvents,
triangular ones chain resolvents at the partial sums s_1 + ... + s_i, and the
symmetric one averages the triangular value over all argument permutations.
That average is not formed permutation by permutation: the triangular chains
share their partial results, which depend only on the set of arguments used
so far, so one resolvent solve per nonempty subset (2^k - 1 in all) gives it.
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

# The symmetric kind refuses orders above this; its subset recursion holds
# 2^k partial results.
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


def _subset_sums(ss: tuple[complex, ...]) -> list[complex]:
    """Sums of ss over every subset; bit i of the index says whether ss[i] is in it.

    Index 0 is the empty sum. Refuses more than MAX_PERMUTATION_ORDER terms.
    """
    if len(ss) > MAX_PERMUTATION_ORDER:
        raise ValueError(
            f"symmetric kind capped at k <= {MAX_PERMUTATION_ORDER}, got k = {len(ss)}")
    sums = [0j]
    for z in ss:
        sums += [t + z for t in sums]
    return sums


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

    Channels permute together with the frequencies. The sum over the
    triangular chains that use the arguments of a set S first, in any order,
    is F(S) = R(sigma_S) sum_{i in S} N_{j_i} F(S \\ {i}), with
    F({i}) = R(s_i) b_{j_i}, R(z) = (z I - A)^{-1} and sigma_S the sum of the
    s_i in S; the value is C F(all) / k!. That is 2^k - 1 resolvent solves
    in place of k k! (the Held-Karp subset recursion). Refuses k > 8.
    """
    require_explicit(sys)
    ss = _freq_tuple(s)
    chs = _channels_tuple(sys, channels, len(ss))
    k = len(ss)
    sums = _subset_sums(ss)
    F = [None] * len(sums)
    for S in range(1, len(sums)):
        members = [i for i in range(k) if S >> i & 1]
        if len(members) == 1:
            v = sys.B[:, chs[members[0]] - 1].astype(complex)
        else:
            v = sum(sys.N[chs[i] - 1] @ F[S ^ (1 << i)] for i in members)
        F[S] = resolvent_apply(sys.A, sums[S], v)
    return TransferValue(sys.C @ F[-1] / math.factorial(k), "symmetric", chs)


def _kind_rules(kind: str):
    """(evaluator, Laplace exponents of a frequency tuple) of a transfer kind.

    The real parts of the exponents must all exceed the spectral abscissa.
    The partial sums of all argument permutations, which the symmetric kind
    needs, are exactly the nonempty subset sums.
    """
    # Built per call, so a wrapper later bound to these names (perfbench's
    # tracer) also sees the calls made through this table.
    rules = {"regular": (eval_tf_regular, tuple),
             "triangular": (eval_tf_triangular, _partial_sums),
             "symmetric": (eval_tf_symmetric, lambda ss: tuple(_subset_sums(ss)[1:]))}
    if kind not in rules:
        raise ValueError(f"unknown transfer kind {kind!r}")
    return rules[kind]


def _evaluator(kind: str):
    """Transfer-function evaluator of a kind name."""
    return _kind_rules(kind)[0]


def roc_margin(sys: BilinearSystem, s, kind: str) -> float:
    """Distance of s from the region-of-convergence boundary (positive = inside).

    Regular transforms need Re(s_i) above the spectral abscissa of A;
    triangular ones need every partial sum Re(s_1 + ... + s_i) above it, and
    symmetric ones every subset sum (k <= 8).
    """
    require_explicit(sys)
    ss = _freq_tuple(s)
    _, exponents = _kind_rules(kind)
    return min(z.real for z in exponents(ss)) - sys.spectral_abscissa


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
