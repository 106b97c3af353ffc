"""The spectral layer against the loops it replaces.

reference_tf_symmetric sums the triangular transfer function over all k!
argument permutations (k k! resolvent solves); eval_tf_symmetric shares the
partial results between permutations and solves once per nonempty subset.
reference_quadrature calls expm at every Gauss-Legendre node of both runs,
sums the exponentials into one matrix per axis and samples the transient
growth there as ||e^{At}||_2 e^{-alpha t}. laplace_quadrature shifts A by its
spectral abscissa alpha and applies the axis sums to the chain's vectors. It
takes one of two paths:
- on a system with no eigenbasis (most make_stable_system draws, and
  transient_growth_system), panel p's vectors are e^{(A - alpha I) w} times
  panel p - 1's. panels = 1 takes the coarse run at 2 panels, the others at
  panels // 2; for an even count (2, 32) the coarse run applies the fine
  run's exponentials twice, for an odd one (1, 3) it forms its own;
- on a system with one (normal_system, with kappa_2(V) = 1), the axis sum is
  V diag(g) V^{-1}, with g summed from the scalar exponentials
  e^{(w - alpha) t} at each run's nodes, and no panel step is taken.
Both sample the growth on the fine run only, from the largest eigenvalue of
E^T E of the dense exponentials.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivolt import (eval_tf_symmetric, eval_tf_triangular, expm,
                    laplace_quadrature, roc_margin)
from bivolt.verify import _gl_points, _tail_bound

from conftest import make_stable_system, normal_system, transient_growth_system

RTOL = 1e-12
DISC_ATOL = 1e-9


def reference_tf_symmetric(sys, chs, s):
    acc = np.zeros(sys.p, dtype=complex)
    for perm in itertools.permutations(range(len(s))):
        acc += eval_tf_triangular(sys, [chs[i] for i in perm],
                                  [s[i] for i in perm]).value
    return acc / math.factorial(len(s))


def reference_roc_symmetric(sys, s):
    sums = [z for perm in itertools.permutations(s)
            for z in itertools.accumulate(perm)]
    return min(z.real for z in sums) - max(np.linalg.eigvals(sys.A).real)


def reference_quadrature(sys, chs, kind, s, T, panels):
    """Value, tail bound, discretization estimate and growth of the per-node loop."""
    sig = tuple(s) if kind == "regular" else tuple(itertools.accumulate(s))
    abscissa = max(np.linalg.eigvals(sys.A).real)

    def run(P):
        ts, wts = _gl_points(T, P)
        exps = [expm(sys.A, t) for t in ts]
        growth = max([1.0] + [np.linalg.norm(E, 2) * math.exp(-abscissa * t)
                              for t, E in zip(ts, exps)])
        axis = [sum(c * E for c, E in zip(wts * np.exp(-z * ts), exps)) for z in sig]
        v = axis[0] @ sys.B[:, chs[0] - 1]
        for i in range(1, len(sig)):
            v = axis[i] @ (sys.N[chs[i] - 1] @ v)
        return sys.C @ v, growth

    value, growth = run(panels)
    coarse, _ = run(panels // 2 if panels >= 2 else 2 * panels)
    return (value, _tail_bound(sys, chs, [z.real - abscissa for z in sig], growth)(T),
            float(np.max(np.abs(value - coarse))), growth)


def assert_quadrature_matches(sys, chs, kind, s, T, panels):
    got = laplace_quadrature(sys, chs, kind, s, T, panels)
    value, tail, disc, growth = reference_quadrature(sys, chs, kind, s, T, panels)
    assert np.abs(got.value - value).max() <= RTOL * np.abs(value).max()
    assert got.tail_bound == pytest.approx(tail, rel=RTOL, abs=0.0)
    assert got.discretization_estimate == pytest.approx(disc, rel=0.0, abs=DISC_ATOL)
    return growth


SETTINGS = settings(derandomize=True, max_examples=4, deadline=None)
SIZES = dict(n=st.sampled_from([1, 3, 6]), m=st.sampled_from([1, 2]),
             seed=st.integers(0, 2**32 - 1))


def frequencies(rng, k):
    return rng.uniform(0.2, 1.5, k) + 1j * rng.uniform(-2.0, 2.0, k)


@pytest.mark.parametrize("k", range(1, 7))
@SETTINGS
@given(**SIZES)
def test_tf_symmetric_matches_permutation_sum(k, n, m, seed):
    rng = np.random.default_rng(seed)
    sys = make_stable_system(rng, n=n, m=m, p=2)
    s, chs = frequencies(rng, k), rng.integers(1, m + 1, size=k)
    want = reference_tf_symmetric(sys, chs, s)
    got = eval_tf_symmetric(sys, chs, s).value
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max()
    assert roc_margin(sys, s, "symmetric") == pytest.approx(
        reference_roc_symmetric(sys, s), rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("panels", [1, 2, 3, 32])
@pytest.mark.parametrize("kind", ["regular", "triangular"])
@SETTINGS
@given(k=st.integers(1, 3), T=st.floats(2.0, 16.0), **SIZES)
def test_quadrature_matches_per_node_expm(kind, panels, k, T, n, m, seed):
    rng = np.random.default_rng(seed)
    sys = make_stable_system(rng, n=n, m=m, p=2)
    s, chs = frequencies(rng, k), rng.integers(1, m + 1, size=k)
    assert_quadrature_matches(sys, chs, kind, s, T, panels)


@pytest.mark.parametrize("panels", [1, 2, 3, 32])
@pytest.mark.parametrize("kind", ["regular", "triangular"])
@SETTINGS
@given(k=st.integers(1, 3), T=st.floats(2.0, 16.0), **SIZES)
def test_modal_quadrature_matches_per_node_expm(kind, panels, k, T, n, m, seed):
    sys = normal_system(n, m=m, p=2, seed=seed)
    assert sys._eigenbasis is not None
    rng = np.random.default_rng(seed)
    s, chs = frequencies(rng, k), rng.integers(1, m + 1, size=k)
    assert_quadrature_matches(sys, chs, kind, s, T, panels)


@pytest.mark.parametrize("panels", [1, 2, 3, 32])
@pytest.mark.parametrize("kind", ["regular", "triangular"])
def test_quadrature_matches_per_node_expm_under_transient_growth(kind, panels):
    # the growth constant comes from the last nodes, where the panel-step
    # products have run longest
    sys = transient_growth_system()
    growth = assert_quadrature_matches(sys, [1, 1], kind, [0.5 + 1.0j, 0.3 - 0.5j],
                                       12.0, panels)
    assert growth > 2.0
