"""Both RK4 engines against the textbook loop they replace.

The reference below builds sum_j u_j N_j for every stage and has no run
shortcut; the engines use a stacked [A; N_1..N_m] product per stage, a run
map on steps whose input samples are one constant vector, and a buffer of
BLOCK_ROWS state rows, which is BLOCK_ROWS steps of the full system and
BLOCK_ROWS // K steps of a K-order cascade. Grids of 2, block, block + 1 and
2 block + 3 nodes put the last step inside, at the end of and past the first
block. Zero runs in the mixed inputs are short; a burst followed by a zero
tail runs one input-free stretch through a whole block and across two block
edges; held levels put nonzero constant runs of up to 300 nodes across block
edges, between zero runs.

Sine and random inputs change on every step, so every step is forced; at
these small n a forced stretch is filled by the pairwise reduction of its
step maps. Patched inputs put forced stretches of 1..41 steps between held
levels. Each forced case runs three times: with the path the cost model
picks, with every forced stretch reduced, whatever its length, and with
every stretch stepped; the mixed cases run the last way too. One long case
reduces the benchmark's forced shape, 2500 steps on a stiff system, and
another steps it at n = 20, where the cost model steps.

A run may be filled over its outputs alone, in chunks of a projection of
its map's powers. Pulse and step cases run past three blocks on grids whose
lengths are not powers of two, with the path the cost model picks and with
every run projected: the free run after a pulse from x0 != 0, and a driven
run with a shift B u under a step.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivolt import (BilinearSystem, SampledSignal, TimeGrid, delta_eps_signal,
                    ode_direct, response, signal_from_samples, sine_signal,
                    step_signal, volterra_cascade)
from bivolt.response import BLOCK_ROWS, MAP, PROJECT, REDUCE, STEP

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


def burst_input(rng, grid, m):
    """Random samples on the first 1..10 nodes, zero after them."""
    mask = np.arange(grid.nodes) < rng.integers(1, 11)
    return SampledSignal(grid, rng.standard_normal((grid.nodes, m)) * mask[:, None])


def held_input(rng, grid, m):
    """Sample and hold: random nonzero levels, each held for 1..300 nodes,
    alternating with zero runs of 1..300 nodes."""
    lengths = rng.integers(1, 301, size=grid.nodes)
    levels = rng.standard_normal((lengths.size, m))
    levels[(np.arange(lengths.size) + rng.integers(2)) % 2 == 0] = 0.0
    return SampledSignal(grid, np.repeat(levels, lengths, axis=0)[:grid.nodes])


def case(seed, n, m, nodes, make_input=mixed_input):
    rng = np.random.default_rng(seed)
    sys = make_stable_system(rng, n=n, m=m, p=2, with_x0=True)
    grid = TimeGrid(0.0, (nodes - 1) * DT, DT)
    assert grid.nodes == nodes
    return sys, grid, make_input(rng, grid, m)


def nodes_for(where, block):
    return {"2": 2, "block": block, "block+1": block + 1,
            "2block+3": 2 * block + 3}[where]


WHERE = ["2", "block", "block+1", "2block+3"]
SETTINGS = settings(derandomize=True, max_examples=4, deadline=None)
SIZES = dict(n=st.sampled_from([1, 3, 6]), m=st.sampled_from([1, 2]),
             seed=st.integers(0, 2**32 - 1))


def step_every_stretch(monkeypatch):
    """Step every stretch, runs included, whatever the cost model says."""
    mapped = response._mapped

    def stepped(*args):
        via = mapped(*args)
        via[:] = STEP
        return via

    monkeypatch.setattr(response, "_mapped", stepped)


def on_each_path(call, *paths):
    """call() once per path (None: the cost model's), with that path patched in."""
    results = []
    for path in paths:
        with pytest.MonkeyPatch.context() as mp:
            if path is not None:
                path(mp)
            results.append(call())
    return results


@pytest.mark.parametrize("where", WHERE)
@SETTINGS
@given(**SIZES)
def test_ode_direct_matches_reference_loop(where, n, m, seed):
    sys, grid, u = case(seed, n, m, nodes_for(where, BLOCK_ROWS))
    want = reference_rk4(sys, u, grid)
    for got in on_each_path(lambda: ode_direct(sys, u, grid).values, None, step_every_stretch):
        assert_close_per_order([got], [want])


@pytest.mark.parametrize("where", WHERE)
@SETTINGS
@given(K=st.integers(1, 5), **SIZES)
def test_cascade_matches_reference_loop(where, K, n, m, seed):
    sys, grid, u = case(seed, n, m, nodes_for(where, BLOCK_ROWS // K))
    want = reference_rk4(sys, u, grid, K).transpose(1, 0, 2)
    for got in on_each_path(lambda: volterra_cascade(sys, u, K, grid).per_order,
                            None, step_every_stretch):
        assert_close_per_order(got, want)


# A burst, then one free run through block 1 and across both block edges.
@SETTINGS
@given(**SIZES)
def test_ode_direct_free_tail_across_blocks(n, m, seed):
    sys, grid, u = case(seed, n, m, 2 * BLOCK_ROWS + 3, burst_input)
    got = ode_direct(sys, u, grid).values
    assert_close_per_order([got], [reference_rk4(sys, u, grid)])


@pytest.mark.parametrize("K", range(1, 6))
@SETTINGS
@given(**SIZES)
def test_cascade_free_tail_across_blocks(K, n, m, seed):
    sys, grid, u = case(seed, n, m, 2 * (BLOCK_ROWS // K) + 3, burst_input)
    got = volterra_cascade(sys, u, K, grid).per_order
    want = reference_rk4(sys, u, grid, K).transpose(1, 0, 2)
    assert_close_per_order(got, want)


@pytest.mark.parametrize("where", WHERE)
@SETTINGS
@given(**SIZES)
def test_ode_direct_held_levels(where, n, m, seed):
    sys, grid, u = case(seed, n, m, nodes_for(where, BLOCK_ROWS), held_input)
    got = ode_direct(sys, u, grid).values
    assert_close_per_order([got], [reference_rk4(sys, u, grid)])


@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("K", range(1, 6))
@SETTINGS
@given(**SIZES)
def test_cascade_held_levels(K, where, n, m, seed):
    sys, grid, u = case(seed, n, m, nodes_for(where, BLOCK_ROWS // K), held_input)
    got = volterra_cascade(sys, u, K, grid).per_order
    want = reference_rk4(sys, u, grid, K).transpose(1, 0, 2)
    assert_close_per_order(got, want)


def sine_input(rng, grid, m):
    """A sine of random frequency and phase on each channel."""
    t = grid.times()[:, None]
    return SampledSignal(grid, np.sin(rng.uniform(0.5, 3.0, m) * t
                                      + rng.uniform(0.0, 2 * np.pi, m)))


def random_input(rng, grid, m):
    return SampledSignal(grid, rng.standard_normal((grid.nodes, m)))


def patched_input(rng, grid, m):
    """Held levels of 2..100 nodes, zero or not, each followed by random
    samples on 0..40 nodes: forced stretches of 1..41 steps between runs."""
    parts = []
    while sum(map(len, parts)) < grid.nodes:
        level = rng.standard_normal(m) * rng.integers(2)
        parts.append(np.repeat(level[None], rng.integers(2, 101), axis=0))
        parts.append(rng.standard_normal((rng.integers(0, 41), m)))
    return SampledSignal(grid, np.concatenate(parts)[:grid.nodes])


FORCED = {"sine": sine_input, "random": random_input, "patched": patched_input}


def reduce_every_forced_stretch(monkeypatch):
    """Reduce every forced stretch, whatever its length and the cost model."""
    mapped = response._mapped

    def reduced(*args):
        via = mapped(*args)
        via[via == STEP] = REDUCE
        return via

    monkeypatch.setattr(response, "_mapped", reduced)


@pytest.mark.parametrize("kind", FORCED)
@pytest.mark.parametrize("where", WHERE)
@SETTINGS
@given(n=st.sampled_from([1, 3, 4]), m=st.sampled_from([1, 2]),
       seed=st.integers(0, 2**32 - 1))
def test_ode_direct_forced(where, kind, n, m, seed):
    sys, grid, u = case(seed, n, m, nodes_for(where, BLOCK_ROWS), FORCED[kind])
    want = reference_rk4(sys, u, grid)
    for got in on_each_path(lambda: ode_direct(sys, u, grid).values,
                            None, reduce_every_forced_stretch, step_every_stretch):
        assert_close_per_order([got], [want])


@pytest.mark.parametrize("kind", FORCED)
@pytest.mark.parametrize("where", WHERE)
@SETTINGS
@given(K=st.integers(1, 5), n=st.sampled_from([1, 3, 4]),
       m=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
def test_cascade_forced(where, kind, K, n, m, seed):
    sys, grid, u = case(seed, n, m, nodes_for(where, BLOCK_ROWS // K), FORCED[kind])
    want = reference_rk4(sys, u, grid, K).transpose(1, 0, 2)
    for got in on_each_path(lambda: volterra_cascade(sys, u, K, grid).per_order,
                            None, reduce_every_forced_stretch, step_every_stretch):
        assert_close_per_order(got, want)


@pytest.mark.parametrize("n, refused", [(4, "_rk4_step"), (100, "_reduce")])
def test_cost_model_reduces_at_small_n_and_steps_at_large_n(n, refused, monkeypatch):
    # sim_forced's sine case: 2500 steps of 4e-3, m = 2, K = 4, every step forced
    def refuse(*args):
        raise AssertionError(f"{refused} should not run at n = {n}")

    monkeypatch.setattr(response, refused, refuse)
    grid = TimeGrid(0.0, 10.0, 4e-3)
    u = sine_signal(grid, mu=[1.0, -0.5], omega=1.7)
    sys = make_stable_system(np.random.default_rng(n), n=n, m=2, p=1, with_x0=True)
    ode_direct(sys, u, grid)
    volterra_cascade(sys, u, 4, grid)


def test_stepped_forced_shape_matches_reference_loop(monkeypatch):
    # sim_forced's stepped shape: n = 20, m = 2, K = 4, 2500 steps of 4e-3
    # under a sine, where the cost model steps every forced stretch.
    def refuse(*args):
        raise AssertionError("every forced stretch should be stepped here")

    monkeypatch.setattr(response, "_reduce", refuse)
    sys = make_stable_system(np.random.default_rng(20), n=20, m=2, p=2, with_x0=True)
    grid = TimeGrid(0.0, 10.0, 4e-3)
    u = sine_signal(grid, mu=[1.0, -0.5], omega=1.7)
    assert grid.nodes == 2501
    assert_close_per_order([ode_direct(sys, u, grid).values], [reference_rk4(sys, u, grid)])
    assert_close_per_order(volterra_cascade(sys, u, 4, grid).per_order,
                           reference_rk4(sys, u, grid, 4).transpose(1, 0, 2))


def test_forced_on_a_long_stiff_grid(monkeypatch):
    # The benchmark's forced shape, where the reduction's coherent rounding
    # has the most steps to build up: n = 4, m = 2, K = 4, 2500 steps of
    # 4e-3, a dense stiff system with eigenvalues -0.5 .. -60 +- 0.25i .. 3i,
    # and piecewise-linear samples in [0.5, 1.5]. Every step is reduced.
    # Of seeds 0..11, seed 0 leaves the least margin: cascade order 3 is off
    # by 8.6e-14 relative, where stepping is off by at most 1.9e-15.
    def refuse(*args):
        raise AssertionError("every forced stretch should be reduced here")

    rng = np.random.default_rng(0)
    A0 = np.zeros((4, 4))
    for i, (re, im) in enumerate([(-0.5, 0.25), (-60.0, 3.0)]):
        A0[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[re, im], [-im, re]]
    Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    sys = BilinearSystem(A=Q @ A0 @ Q.T, N=0.00125 * rng.standard_normal((2, 4, 4)),
                         B=rng.standard_normal((4, 2)) / 2,
                         C=rng.standard_normal((1, 4)) / 2,
                         x0=0.05 * rng.standard_normal(4))
    grid = TimeGrid(0.0, 10.0, 4e-3)
    knots = np.linspace(0.0, 11.0, 41)
    u = signal_from_samples(grid, knots, 0.5 + rng.random((knots.size, 2)))
    want_direct = reference_rk4(sys, u, grid)
    want_cascade = reference_rk4(sys, u, grid, 4).transpose(1, 0, 2)
    monkeypatch.setattr(response, "_rk4_step", refuse)
    assert_close_per_order([ode_direct(sys, u, grid).values], [want_direct])
    assert_close_per_order(volterra_cascade(sys, u, 4, grid).per_order, want_cascade)


def project_every_run(monkeypatch):
    """Fill every run over its outputs, whatever the cost model says; returns
    the (steps written, steps asked) of each projected stretch."""
    mapped, project, written = response._mapped, response._project, []

    def projected(*args):
        via = mapped(*args)
        via[via == MAP] = PROJECT
        return via

    def spy(Y, out, *args):
        done, Y = project(Y, out, *args)
        written.append((done, out.shape[1]))
        return done, Y

    monkeypatch.setattr(response, "_mapped", projected)
    monkeypatch.setattr(response, "_project", spy)
    return written


def run_input(kind, rng, grid, m):
    """A pulse of 10..30 steps from t = 0, then zero input, or a step."""
    mu = rng.standard_normal(m)
    if kind == "step":
        return step_signal(grid, mu)
    return delta_eps_signal(grid, grid.dt * rng.integers(10, 31), mu)


@pytest.mark.parametrize("kind", ["pulse", "step"])
@pytest.mark.parametrize("K", [None, 1, 2, 3, 4])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_projected_runs_match_reference_loop(kind, K, p):
    rng = np.random.default_rng([p, K or 0, kind == "step"])
    sys = make_stable_system(rng, n=6, m=2, p=p, with_x0=True)
    block = BLOCK_ROWS // (K or 1)
    grid = TimeGrid(0.0, (3 * block + int(rng.integers(3, 100))) * DT, DT)
    u = run_input(kind, rng, grid, sys.m)
    want = reference_rk4(sys, u, grid, K)
    want = [want] if K is None else want.transpose(1, 0, 2)
    for every in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            written = project_every_run(mp) if every else []
            got = (ode_direct(sys, u, grid).values[None] if K is None
                   else volterra_cascade(sys, u, K, grid).per_order)
        assert_close_per_order(got, want)
        if every:
            # one stretch to the end of the grid, written in full
            assert written[-1][0] == written[-1][1] > 2 * block


def run_projection(rows, driven, c, growth=0.0):
    """A run map's powers and projection for chunks of c steps, and a start
    state Y, for the full system (rows = 1) or a cascade of rows orders; a
    driven cascade run's map has bands and a shift, so its projection has
    rho, and the full system's has rho wherever its u is not zero. growth
    is added to the diagonal of A."""
    rng = np.random.default_rng([rows, driven, c])
    made = make_stable_system(rng, n=5, m=2, p=2, with_x0=True)
    sys = BilinearSystem(A=made.A + growth * np.eye(made.n), N=made.N, B=made.B, C=made.C)
    u = rng.standard_normal(2) if driven else np.zeros(2)
    T, r = response._step_maps(sys, np.array([u, u]), u[None], DT, rows, int(rows > 1))
    powers = [(T[:, 0], r[:, 0] if r.any() else None)]
    projection = response._projection(powers, sys.C.T, c)
    assert (projection[1] is None) == (not driven)
    return sys, powers, projection, rng.standard_normal((rows, sys.n))


def groups_of(group, rows, sys, projection, monkeypatch):
    """Make _project write the chunks of this projection `group` at a time."""
    b, width = len(projection[0]), projection[0].shape[-1]
    monkeypatch.setattr(response, "GROUP", group * (rows * sys.n + (b > 1) * (rows - 1) * width))
    assert response._group(rows, sys.n, b, width) == group


def filled_outputs(sys, Y, powers, L):
    """The reference: F(Y), ..., F^L(Y) by the state fill, through C."""
    run = np.empty((len(Y), L, sys.n))
    assert response._fill(Y, run, list(powers))
    return run @ sys.C.T, run


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("driven", [False, True])
@pytest.mark.parametrize("rest", ["0", "1", "c-1"])
@pytest.mark.parametrize("group", [None, 2])
def test_project_matches_filled_states(rows, driven, rest, group, monkeypatch):
    # L = J c + rest steps in full chunks and a partial one; group = 2 puts
    # the J = 5 full chunks in three groups, None in one.
    c, J = 8, 5
    L = J * c + {"0": 0, "1": 1, "c-1": c - 1}[rest]
    sys, powers, projection, Y = run_projection(rows, driven, c)
    if group is not None:
        groups_of(group, rows, sys, projection, monkeypatch)
    want, states = filled_outputs(sys, Y, powers, L)
    out = np.full((rows, L, sys.p), np.nan)
    done, last = response._project(Y, out, powers, projection, DT)
    assert done == L
    assert_close_per_order(out, want)
    assert_close_per_order(last[:, None], states[:, -1:])


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("group", [None, 2])
@pytest.mark.parametrize("j", [1, 3])
def test_project_refuses_at_the_first_chunk_past_its_bound(rows, group, j, monkeypatch):
    # The bound admits the first states of chunks 0..j-1 and refuses chunk
    # j's: those chunks are written, the rest of out is not, and the state
    # returned is chunk j's first, from which the caller fills the states.
    # The states grow about fivefold a chunk.
    c, J = 8, 5
    L = J * c + 3
    sys, powers, projection, Y = run_projection(rows, True, c, growth=20.0)
    if group is not None:
        groups_of(group, rows, sys, projection, monkeypatch)
    want, states = filled_outputs(sys, Y, powers, L)
    starts = np.concatenate([Y[:, None], states[:, c - 1::c]], axis=1)
    sizes = np.abs(starts).max(axis=(0, 2))
    # a limit between the admitted sizes and chunk j's, through grow
    limit = 0.5 * (sizes[:j].max() + sizes[j])
    assert sizes[:j].max() < limit < sizes[j] and limit >= 1.0
    Z, rho, _ = projection
    grow = np.finfo(float).max / (limit * 12.0 / DT)
    out = np.full((rows, L, sys.p), np.nan)
    done, start = response._project(Y, out, powers, (Z, rho, grow), DT)
    assert done == j * c
    assert_close_per_order(out[:, :done], want[:, :done])
    assert np.isnan(out[:, done:]).all()
    assert_close_per_order(start[:, None], states[:, done - 1:done])


def one_channel_levels(rng, grid, channel):
    """Three channels held at nonzero levels, of which only `channel` changes
    level, after 1..60 nodes each."""
    values = np.tile(rng.standard_normal(3), (grid.nodes, 1))
    lengths = rng.integers(1, 61, size=grid.nodes)
    values[:, channel] = np.repeat(rng.standard_normal(lengths.size), lengths)[:grid.nodes]
    return SampledSignal(grid, values)


@pytest.mark.parametrize("channel", [0, 2])
@pytest.mark.parametrize("K", [None, 3])
def test_runs_found_on_every_channel(channel, K):
    # A step belongs to a run only where all m = 3 channels hold their level
    # over it; here that is where the one changing channel does.
    rng = np.random.default_rng([channel, K or 0])
    sys = make_stable_system(rng, n=4, m=3, p=2, with_x0=True)
    grid = TimeGrid(0.0, 700 * DT, DT)
    u = one_channel_levels(rng, grid, channel)
    mapped, steady = response._mapped, []

    def spy(sys, U, runs, *args):
        steady.append(runs.copy())
        return mapped(sys, U, runs, *args)

    def call():
        return (ode_direct(sys, u, grid).values[None] if K is None
                else volterra_cascade(sys, u, K, grid).per_order)

    got, want = on_each_path(call, lambda mp: mp.setattr(response, "_mapped", spy),
                             step_every_stretch)
    level = u.values[:, channel]
    assert np.array_equal(steady[0], level[:-1] == level[1:])
    assert 0 < steady[0].sum() < steady[0].size
    assert_close_per_order(got, want)


@pytest.mark.parametrize("K", [None, 3])
def test_signal_off_the_grid_is_interpolated(K):
    # On any grid but its own, a signal is sampled by interpolation at the
    # simulation grid's nodes and midpoints, as the reference loop samples
    # it (u.at_many). The signal's grid (dt = 0.013) ends at t = 1.69, within
    # the simulation's 4 s, so a free run of zero input follows it.
    rng = np.random.default_rng([17, K or 0])
    sys = make_stable_system(rng, n=4, m=2, p=2, with_x0=True)
    grid = TimeGrid(0.0, 400 * DT, DT)
    signal_grid = TimeGrid(0.0, 1.69, 0.013)
    u = SampledSignal(signal_grid, rng.standard_normal((signal_grid.nodes, 2)))
    assert u.grid != grid
    if K is None:
        got, want = [ode_direct(sys, u, grid).values], [reference_rk4(sys, u, grid)]
    else:
        got = volterra_cascade(sys, u, K, grid).per_order
        want = reference_rk4(sys, u, grid, K).transpose(1, 0, 2)
    assert_close_per_order(got, want)
