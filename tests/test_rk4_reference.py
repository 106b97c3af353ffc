"""Both RK4 engines against the textbook loop they replace.

The reference below builds sum_j u_j N_j for every stage and has no free-step
shortcut; the engines use a stacked [A; N_1..N_m] product per stage, a free
map on input-free steps, and a buffer of BLOCK_ROWS state rows, which is
BLOCK_ROWS steps of the full system and BLOCK_ROWS // K steps of a K-order
cascade. Grids of 2, block, block + 1 and 2 block + 3 nodes put the last step
inside, at the end of and past the first block.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivolt import SampledSignal, TimeGrid, ode_direct, volterra_cascade
from bivolt.response import BLOCK_ROWS

from conftest import make_stable_system

DT = 1e-2
RTOL = 1e-13


def reference_rk4(sys, u, grid, K=None):
    """Textbook RK4; the full system when K is None, else the K-order cascade."""
    times = grid.times()
    h = grid.dt
    U = u.at_many(times)
    Um = u.at_many(times[:-1] + 0.5 * h)

    def rhs(uv, X):
        Nu = np.tensordot(uv, sys.N, axes=1)
        if K is None:
            return sys.A @ X + Nu @ X + sys.B @ uv
        dX = X @ sys.A.T
        dX[0] += sys.B @ uv
        dX[1:] += X[:-1] @ Nu.T
        return dX

    X = sys.x0.copy() if K is None else np.zeros((K, sys.n))
    if K is not None:
        X[0] = sys.x0
    states = [X]
    for i in range(grid.nodes - 1):
        k1 = rhs(U[i], X)
        k2 = rhs(Um[i], X + 0.5 * h * k1)
        k3 = rhs(Um[i], X + 0.5 * h * k2)
        k4 = rhs(U[i + 1], X + h * k3)
        X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(X)
    return np.array(states) @ sys.C.T


def mixed_input(rng, grid, m):
    """Random samples, zeroed on alternating runs of 1..60 nodes."""
    lengths = rng.integers(1, 61, size=grid.nodes)
    on = (np.arange(lengths.size) + rng.integers(2)) % 2 == 1
    mask = np.repeat(on, lengths)[:grid.nodes]
    return SampledSignal(grid, rng.standard_normal((grid.nodes, m)) * mask[:, None])


def assert_close_per_order(got, want):
    for g, w in zip(got, want):
        scale = np.abs(w).max()
        assert np.abs(g - w).max() <= RTOL * scale


def case(seed, n, m, nodes):
    rng = np.random.default_rng(seed)
    sys = make_stable_system(rng, n=n, m=m, p=2, with_x0=True)
    grid = TimeGrid(0.0, (nodes - 1) * DT, DT)
    assert grid.nodes == nodes
    return sys, grid, mixed_input(rng, grid, m)


def nodes_for(where, block):
    return {"2": 2, "block": block, "block+1": block + 1,
            "2block+3": 2 * block + 3}[where]


WHERE = ["2", "block", "block+1", "2block+3"]
SETTINGS = settings(derandomize=True, max_examples=4, deadline=None)
SIZES = dict(n=st.sampled_from([1, 3, 6]), m=st.sampled_from([1, 2]),
             seed=st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("where", WHERE)
@SETTINGS
@given(**SIZES)
def test_ode_direct_matches_reference_loop(where, n, m, seed):
    sys, grid, u = case(seed, n, m, nodes_for(where, BLOCK_ROWS))
    got = ode_direct(sys, u, grid).values
    assert_close_per_order([got], [reference_rk4(sys, u, grid)])


@pytest.mark.parametrize("where", WHERE)
@SETTINGS
@given(K=st.integers(1, 5), **SIZES)
def test_cascade_matches_reference_loop(where, K, n, m, seed):
    sys, grid, u = case(seed, n, m, nodes_for(where, BLOCK_ROWS // K))
    got = volterra_cascade(sys, u, K, grid).per_order
    want = reference_rk4(sys, u, grid, K).transpose(1, 0, 2)
    assert_close_per_order(got, want)
