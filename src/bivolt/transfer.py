"""Multidimensional transfer functions of bilinear systems.

Regular transfer functions chain resolvent solves at single frequencies and
triangular ones at the partial sums s_1 + ... + s_i. The chain is
system._chain, the product a kernel forms with e^{A tau_i} where these take
(sigma_i I - A)^{-1}: the Laplace transform of a kernel is a transfer
function. The symmetric one averages the triangular value over all argument
permutations. That average is not formed permutation by permutation: the
triangular chains share their partial results, which depend only on the set
of arguments used so far, so one resolvent solve per nonempty subset
(2^k - 1 in all) gives it, made as one stacked solve call per subset size
(k in all).

Every solve goes through one path, linalg._solver, built once per call
over the call's shifts: the regular and triangular chains solve each
position as they reach it, and the symmetric kind solves each subset size
as one stack. A shift is solved in one of three ways behind one
certificate, from the system's cached mu2(A) and ||A||_inf
(linalg._certified):
- a certified shift is solved in A's eigenbasis where the system holds one
  (kappa_2(V) <= 2): products by V^{-1} and V, a division by s - w, and one
  step of iterative refinement, which makes it as accurate as LU;
- a certified shift of a system with no eigenbasis is solved by LU;
- any other shift takes resolvent_apply's checked inverse, so a pole is
  refused, with the first shift that hits it, as resolvent_apply refuses it.
Where a system with an eigenbasis is evaluated at real frequencies, the
value is returned exactly real, as the other paths return it. Frequency
tuples are sequences of complex numbers; channels are 1-based.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import _solver
from .system import BilinearSystem, _chain, _channels_tuple, require_explicit

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


@dataclass(frozen=True, slots=True)
class TransferValue:
    """Transfer-function value: complex p-vector plus the kind and channels used."""

    value: np.ndarray
    kind: str  # "triangular" | "regular" | "symmetric"
    channels: tuple[int, ...]


def _freq_tuple(s) -> tuple[complex, ...]:
    ss = tuple(np.array(s, dtype=complex, ndmin=1).tolist())
    if not ss:
        raise ValueError("frequency tuple must have order k >= 1")
    if not all(map(cmath.isfinite, ss)):
        raise ValueError("frequency tuple has non-finite components")
    return ss


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


def _real_at_real_shifts(value: np.ndarray, shifts) -> np.ndarray:
    """A modal result with its imaginary part dropped where every shift is real.

    A, B, C and the N_j are real, so such a value is real, and LU, the
    checked inverse and the quadrature's dense path return it with an
    imaginary part of exactly 0. A's eigenvectors V are complex wherever A
    has complex eigenvalues, so products by V and V^{-1} leave one at
    rounding level (1.5e-32 on a normal 4-state system).
    """
    if any(z.imag for z in shifts):
        return value
    return value.real + 0j


def _resolvent_chain(sys: BilinearSystem, chs: tuple[int, ...], sigmas) -> np.ndarray:
    """The chain with X_i = (sigma_i I - A)^{-1}, each solved when the chain
    reaches it (linalg._solver). Forming all k first and then applying them
    took 1.15x as long at n = 100 and k = 3, as the first ones leave the
    cache before the chain uses them.
    """
    basis = sys._eigenbasis
    value = _chain(sys, chs, _solver(sys.A, sigmas, sys._resolvent_bound, basis))
    return value if basis is None else _real_at_real_shifts(value, sigmas)


def eval_tf_regular(sys: BilinearSystem, channels, s) -> TransferValue:
    """C (s_k I - A)^{-1} N_{j_k} ... N_{j_2} (s_1 I - A)^{-1} b_{j_1}."""
    ss = _freq_tuple(s)
    chs = _channels_tuple(sys, channels, len(ss))
    return TransferValue(_resolvent_chain(sys, chs, ss), "regular", chs)


def eval_tf_triangular(sys: BilinearSystem, channels, s) -> TransferValue:
    """Triangular transfer function: resolvent solves at the partial sums s_1+...+s_i."""
    ss = _freq_tuple(s)
    chs = _channels_tuple(sys, channels, len(ss))
    return TransferValue(_resolvent_chain(sys, chs, _partial_sums(ss)), "triangular", chs)


def eval_tf_symmetric(sys: BilinearSystem, channels, s) -> TransferValue:
    """1/k! sum of the triangular transfer function over all argument permutations.

    Channels permute together with the frequencies. The sum over the
    triangular chains that use the arguments of a set S first, in any order,
    is F(S) = R(sigma_S) sum_{i in S} N_{j_i} F(S \\ {i}), with
    F({i}) = R(s_i) b_{j_i}, R(z) = (z I - A)^{-1} and sigma_S the sum of the
    s_i in S; the value is C F(all) / k!. That is 2^k - 1 resolvent solves
    in place of k k! (the Held-Karp subset recursion). F(S) needs only the
    sets one smaller, so the solves of all sets of one size are one call of
    one solver over all 2^k - 1 subset sums: k calls in all. A pole at
    several subset sums is reported at one of the smallest sets. Refuses
    k > 8.
    """
    ss = _freq_tuple(s)
    chs = _channels_tuple(sys, channels, len(ss))
    k = len(ss)
    sums = _subset_sums(ss)
    # the nonempty sets by size, so that the sets of one size are one slice
    sets = sorted(range(1, len(sums)), key=lambda S: bin(S).count("1"))
    solve = _solver(sys.A, [sums[S] for S in sets], sys._resolvent_bound, sys._eigenbasis)
    F = [None] * len(sums)
    start = 0
    for size in range(1, k + 1):
        part = slice(start, start + math.comb(k, size))
        start = part.stop
        V = []
        for S in sets[part]:
            members = [i for i in range(k) if S >> i & 1]
            if size == 1:
                V.append(sys.B[:, chs[members[0]] - 1])
            else:
                V.append(sum(sys.N[chs[i] - 1] @ F[S ^ (1 << i)] for i in members))
        for S, x in zip(sets[part], solve(part, np.stack(V))):
            F[S] = x
    value = sys.C @ F[-1] / math.factorial(k)
    if sys._eigenbasis is not None:
        value = _real_at_real_shifts(value, ss)
    return TransferValue(value, "symmetric", chs)


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
    ``U`` is a single callable applied to every channel, or one per channel;
    a value that is not finite is refused with the channel and the argument,
    and so is a product that overflows.
    """
    ss = _freq_tuple(s)
    tv = _kind_rules(kind)[0](sys, channels, ss)
    evaluators = _per_channel(U, sys.m)
    args = ss
    if kind == "regular":
        args = (ss[0],) + tuple(ss[i] - ss[i - 1] for i in range(1, len(ss)))
    factor = 1.0 + 0.0j
    for j, arg in zip(tv.channels, args):
        u = complex(evaluators[j - 1](arg))
        if not cmath.isfinite(u):
            raise ValueError(f"input transform of channel {j} is not finite at s = {arg}: {u}")
        factor *= u
    with np.errstate(over="ignore", invalid="ignore"):
        out = tv.value * factor
    if not np.isfinite(out).all():
        raise ValueError(f"output transform overflows: the input factors multiply to {factor}")
    return out
