"""Time-domain engines: closed-form impulse and nascent-delta responses,
Volterra cascade simulation, and direct integration.

Each closed form is one affine flow e^M x0 + phi1(M) b, a Taylor series on
vectors in linalg (or, for a large ||M||_1, one augmented exponential), then
free flow under A: the impulse takes M = Nhat, b = bhat; the pulse phase, of
length tau = min(t, eps), takes M = (A + Nhat/eps) tau, b = bhat tau/eps
(_pulse_state), and eps -> 0 gives the impulse.
The free flow C e^{At} x is Re[(C V)(e^{w t} * V^{-1} x)], O(n^2) per call,
from the eigenbasis (w, V^{-1} and C V) of A that the system forms on its
first closed-form or transfer-function call and keeps. Where the system has
none (kappa_2(V) past its gate) or the modal value is not finite, it is
C (expm(A, t) x), so that an overflow raises expm's error.

Simulation uses classical fixed-step RK4 on a uniform grid with inputs
interpolated linearly at half-steps (on the signal's own grid, the node
samples and the averages of neighbours). Both engines share one integrator
over state rows, the full system being one row and the cascade one row per
order. A stepped RK4 stage is two products into fixed buffers (_Stages): the
stage input by the stacked G^T = [A; N_1..N_m]^T, and one input-weighted
combination of the step's state and the products of its stages so far,
which is the next stage's input or, written straight into the state buffer,
the next state: eight numpy calls and a copy per step, with the input weights
of a chunk of steps one product by a fixed template. A run is a stretch
of steps whose node, midpoint and next-node samples are one vector u; zero
input is one such u. Any step is an affine map, linear on [1, state] with
B u entering through a virtual order-0 row, formed from its node, midpoint
and next-node samples by three stacked products (_step_maps): one n x n
block for the full system, and for the cascade a band of blocks,
lower-triangular Toeplitz over the orders. A run has one such map F, and its
powers F, F^2, F^4, ... are squared when first needed and dropped when the
next run brings another u. A run is filled by doubling with them, over its
state rows (L steps within one buffer block cost about log2 L band products,
not L Python steps), or over its outputs alone: the powers projected through
C double the same way, once per run, into an array of the outputs of F^j
for every j of a chunk of c steps. The first state of each chunk is one
product by F^c from the one before, and the outputs of a group of chunks
are one batched product of their first states by that array, written
straight into the output array. The projection pays where p is small
against n, and takes a chunk only where an a-priori bound on its states is
finite, so that an overflowing state is still formed and named. Other
steps are forced: a forced stretch within a block, cut so that one stack
holds at most STACK doubles of maps, can form all its maps as one stack and
fill its states by pairwise reduction. Neighbouring maps are composed, the
states at even steps come from those by recursion, and the odd ones follow
in one stacked apply: about L small products in log2 L rounds. Where a map, a
power or a product is not finite, the run or stretch is stepped instead.
Each stretch takes the cheapest of stepping, its run map over states or
outputs and the reduction, counted in multiply-adds plus a fixed cost per
numpy call (_mapped): stepping costs calls and the reduction flops, so with
m = 2 the reduction takes n up to about 13 for the full system and 6 for a
K = 4 cascade. Formed states go through a fixed block buffer that
is checked for overflow and projected through C, so memory does not grow
with the grid beyond the outputs themselves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import STACK, _affine_flow, expm
from .system import BilinearSystem, effective_matrices, require_explicit

__all__ = [
    "GridResolutionError",
    "TimeGrid",
    "SampledSignal",
    "OutputSeries",
    "ResponseSeries",
    "delta_eps_signal",
    "step_signal",
    "sine_signal",
    "zero_signal",
    "signal_from_samples",
    "impulse_response",
    "impulse_response_subsystem",
    "nascent_response",
    "volterra_cascade",
    "ode_direct",
]


class GridResolutionError(ValueError):
    """A time grid is too coarse or misaligned for the requested signal."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t0, t1] with step dt; node count floor((t1-t0)/dt)+1."""

    t0: float
    t1: float
    dt: float

    def __post_init__(self):
        if not (np.isfinite(self.t0) and np.isfinite(self.t1) and np.isfinite(self.dt)):
            raise ValueError("grid parameters must be finite")
        if self.dt <= 0:
            raise ValueError("grid step dt must be > 0")
        if self.t1 <= self.t0:
            raise ValueError("grid needs t1 > t0")

    @property
    def nodes(self) -> int:
        return int(math.floor((self.t1 - self.t0) / self.dt + 1e-9)) + 1

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.nodes)


@dataclass(frozen=True)
class SampledSignal:
    """Input samples on a grid, linearly interpolated, zero outside the grid."""

    grid: TimeGrid
    values: np.ndarray  # (nodes, m)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != self.grid.nodes:
            raise ValueError(
                f"signal has {vals.shape[0]} sample rows for a grid of "
                f"{self.grid.nodes} nodes")
        if vals.size and not np.isfinite(vals).all():
            raise ValueError("signal has non-finite samples")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def at_many(self, ts) -> np.ndarray:
        """Interpolated samples at arbitrary times, shape (len(ts), m)."""
        ts = np.asarray(ts, dtype=float)
        grid_times = self.grid.times()
        out = np.empty((ts.size, self.m))
        for j in range(self.m):
            out[:, j] = np.interp(ts, grid_times, self.values[:, j],
                                  left=0.0, right=0.0)
        return out

    def at(self, t: float) -> np.ndarray:
        return self.at_many([t])[0]

    def support(self) -> tuple[float, float]:
        """Span on which the interpolant can be nonzero (empty -> (0, 0))."""
        nonzero = np.flatnonzero(np.any(self.values != 0.0, axis=1))
        if nonzero.size == 0:
            return (0.0, 0.0)
        times = self.grid.times()
        lo = times[max(nonzero[0] - 1, 0)]
        hi = times[min(nonzero[-1] + 1, self.grid.nodes - 1)]
        return (float(lo), float(hi))


def _node_index(grid: TimeGrid, t: float, what: str) -> int:
    q = round((t - grid.t0) / grid.dt)
    if abs(grid.t0 + q * grid.dt - t) > 1e-6 * grid.dt or not 0 <= q < grid.nodes:
        raise GridResolutionError(
            f"{what} = {t} does not land on a grid node (t0={grid.t0}, dt={grid.dt})")
    return int(q)


def delta_eps_signal(grid: TimeGrid, eps: float, mu=1.0,
                     start: float = 0.0) -> SampledSignal:
    """Rectangle pulse of height 1/eps on [start, start+eps], weighted by mu.

    Jump nodes interior to the grid carry the midpoint value 1/(2 eps) so the
    piecewise-linear interpolant integrates to exactly one; the grid must
    resolve the pulse (dt <= eps/10) and hit both pulse edges on nodes.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    if grid.dt > eps / 10 + 1e-12 * eps:
        raise GridResolutionError(
            f"grid too coarse for delta pulse: need dt <= eps/10, "
            f"got dt = {grid.dt}, eps = {eps}")
    q_lo = _node_index(grid, start, "pulse start")
    q_hi = _node_index(grid, start + eps, "pulse end")
    weights = np.atleast_1d(np.asarray(mu, dtype=float))
    profile = np.zeros(grid.nodes)
    profile[q_lo:q_hi + 1] = 1.0 / eps
    profile[q_hi] = 0.5 / eps
    if q_lo > 0:
        profile[q_lo] = 0.5 / eps
    return SampledSignal(grid, np.outer(profile, weights))


def step_signal(grid: TimeGrid, mu=1.0, amplitude: float = 1.0) -> SampledSignal:
    """Unit step at t = 0 scaled by amplitude and channel weights mu."""
    weights = np.atleast_1d(np.asarray(mu, dtype=float))
    times = grid.times()
    profile = np.where(times >= 0.0, amplitude, 0.0)
    inside = np.flatnonzero(np.isclose(times, 0.0, atol=1e-12 * max(1.0, grid.dt)))
    for i in inside:
        if i > 0:
            profile[i] = 0.5 * amplitude
    return SampledSignal(grid, np.outer(profile, weights))


def sine_signal(grid: TimeGrid, mu=1.0, amplitude: float = 1.0,
                omega: float = 1.0) -> SampledSignal:
    """amplitude * sin(omega t) for t >= 0, scaled by channel weights mu."""
    weights = np.atleast_1d(np.asarray(mu, dtype=float))
    times = grid.times()
    profile = amplitude * np.sin(omega * times) * (times >= 0.0)
    return SampledSignal(grid, np.outer(profile, weights))


def zero_signal(grid: TimeGrid, m: int = 1) -> SampledSignal:
    return SampledSignal(grid, np.zeros((grid.nodes, m)))


def signal_from_samples(grid: TimeGrid, t, u) -> SampledSignal:
    """Resample explicit (t, u) pairs onto the grid (zero outside their span)."""
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if t.ndim != 1 or u.shape[0] != t.size:
        raise ValueError("samples need matching t (len L) and u (L, m) arrays")
    if np.any(np.diff(t) <= 0):
        raise ValueError("sample times must be strictly increasing")
    times = grid.times()
    vals = np.empty((times.size, u.shape[1]))
    for j in range(u.shape[1]):
        vals[:, j] = np.interp(times, t, u[:, j], left=0.0, right=0.0)
    return SampledSignal(grid, vals)


@dataclass(frozen=True)
class OutputSeries:
    """Output trajectory y(t) on a grid, shape (nodes, p)."""

    grid: TimeGrid
    values: np.ndarray


@dataclass(frozen=True)
class ResponseSeries:
    """Per-subsystem cascade outputs y_k(t), k = 1..K, shape (K, nodes, p)."""

    grid: TimeGrid
    per_order: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.per_order.sum(axis=0)

    @property
    def partial_sums(self) -> np.ndarray:
        return np.cumsum(self.per_order, axis=0)

    @property
    def order_sup_norms(self) -> np.ndarray:
        """sup_t max_i |y_k,i(t)| per order, for judging truncation."""
        return np.abs(self.per_order).max(axis=(1, 2))


def _free_flow(sys: BilinearSystem, t: float, x: np.ndarray) -> np.ndarray:
    """C e^{At} x as Re[(C V)(e^{w t} * V^{-1} x)] where sys has an eigenbasis,
    else, or where that is not finite, as C (expm(A, t) x), which then raises
    its own overflow error."""
    basis = sys._eigenbasis
    if basis is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            y = basis.CV @ (np.exp(basis.w * t) * (basis.Vinv @ x))
        if np.isfinite(y).all():
            return y.real
    return sys.C @ (expm(sys.A, t) @ x)


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def impulse_response(sys: BilinearSystem, mu, t: float) -> np.ndarray:
    """Impulse response C e^{At} (phi1(Nhat) bhat + e^{Nhat} x0) for t > 0."""
    _check_finite(t=t)
    if t <= 0:
        raise ValueError("impulse response defined for t > 0 only")
    eff = effective_matrices(sys, mu)
    return _free_flow(sys, t, _affine_flow(eff.Nhat, eff.bhat, sys.x0))


def impulse_response_subsystem(sys: BilinearSystem, mu, k: int,
                               t: float) -> np.ndarray:
    """Order-k impulse response C e^{At} Nhat^{k-1} (bhat/k! + x0/(k-1)!).

    The factor 1/(k-1)! is taken one 1/i per product by Nhat, so that high
    orders underflow towards 0 rather than k! overflowing.
    """
    if k < 1:
        raise ValueError("subsystem order k must be >= 1")
    _check_finite(t=t)
    if t <= 0:
        raise ValueError("impulse response defined for t > 0 only")
    eff = effective_matrices(sys, mu)
    core = eff.bhat / k + sys.x0
    for i in range(1, k):
        core = (eff.Nhat @ core) / i
    return _free_flow(sys, t, core)


def nascent_response(sys: BilinearSystem, mu, eps: float, t: float) -> np.ndarray:
    """Exact output under the rectangle pulse mu/eps on [0, eps]: the flow of
    Ahat = A + Nhat/eps for tau = min(t, eps), then free flow for t - tau."""
    _check_finite(eps=eps, t=t)
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if t < 0:
        raise ValueError("nascent response defined for t >= 0")
    tau = min(t, eps)
    x = _pulse_state(sys, effective_matrices(sys, mu), eps, tau)
    return _free_flow(sys, t - tau, x) if t > eps else sys.C @ x


def _pulse_state(sys: BilinearSystem, eff, eps: float, tau: float) -> np.ndarray:
    """State at tau <= eps under the rectangle pulse mu/eps: the affine flow
    of Ahat = A + Nhat/eps over tau, for eff = effective_matrices(sys, mu).
    Where Ahat tau overflows, the flow raises expm's FloatingPointError."""
    with np.errstate(over="ignore", invalid="ignore"):
        M = (sys.A + eff.Nhat / eps) * tau
    return _affine_flow(M, eff.bhat * (tau / eps), sys.x0)


# State rows buffered, checked and projected through C at a time: BLOCK_ROWS
# steps of the full system, BLOCK_ROWS // K steps of a K-order cascade.
BLOCK_ROWS = 1024


# The combinations of an RK4 step (_Stages), one (combination s, stage r,
# factor a of h, input sample) per term h a W(u) R_{r+1}, counting s and r
# from 0: combinations 0, 1 and 2 are the stage inputs z_{s+2} =
# z_1 + h a W(u) R_{s+1}, and combination 3 is the next state. Samples 0, 1
# and 2 are the node, midpoint and next-node inputs.
_TABLEAU = ((0, 0, 1 / 2, 0), (1, 1, 1 / 2, 1), (2, 2, 1.0, 1),
            (3, 0, 1 / 6, 0), (3, 1, 1 / 3, 1), (3, 2, 1 / 3, 1), (3, 3, 1 / 6, 2))


@functools.lru_cache(maxsize=None)
def _stage_terms(rows: int, m: int, shift: int) -> tuple:
    """Where the terms of the stage weights of RK4 steps go (_Stages).

    The weights of one step are four matrices, (rows, cols[s]) for stage s,
    in one flat row of F doubles, and those of a chunk of steps (at most 64
    steps and STACK doubles) are chunk such rows. Returns cols, the offsets
    of the matrices in a row and chunk; a row's identity terms, and its A
    terms over h; and the positions in a row of its input terms, each once,
    and their template over h (3 m, terms): a term is one of the step's
    samples (node, midpoint, next node) times h and a _TABLEAU factor.
    """
    width = (rows + 1) * (m + 1)
    cols = rows + width * np.arange(1, 5)
    offsets = np.concatenate([[0], np.cumsum(rows * cols)])
    F = offsets[-1]
    chunk = max(1, min(64, int(STACK // F)))
    # term, row k and input j on the axes; term (s, r) reads R_r from column
    # (s - r) width of stage s's weights, and z_1 comes after R_1
    s, r, a, sample = (np.array(c)[:, None, None] for c in zip(*_TABLEAU))
    k, stage = np.arange(rows)[:, None], np.arange(4)[:, None]
    row = np.zeros(F)
    row[offsets[stage] + k.T * (cols[stage] + 1) + (stage + 1) * width] = 1.0
    over_h = np.zeros(F)
    over_h[offsets[s] + k * cols[s] + (s - r) * width + (k + 1) * (m + 1)] = a
    # u_j N_j y_{k-shift} into row k, and B u into row 1 (the cascade's twice)
    k, source = np.arange(rows + 1), np.arange(1, rows + 2) - shift
    k[-1] = source[-1] = 0
    j = np.arange(1, m + 1)
    pos = offsets[s] + k[:, None] * cols[s] + (s - r) * width + source[:, None] * (m + 1) + j
    put, once = np.unique(pos, return_index=True)
    template = np.zeros((3 * m, put.size))
    template[np.broadcast_to(sample * m + j - 1, pos.shape).ravel()[once],
             np.arange(put.size)] = np.broadcast_to(a, pos.shape).ravel()[once]
    for shared in (cols, offsets, row, over_h, put, template):
        shared.setflags(write=False)
    return cols, offsets, chunk, row, over_h, put, template


def _aligned(shape: tuple) -> np.ndarray:
    """A zero array whose data starts on a 64-byte boundary. With G^T's data
    16 or 48 bytes past one, 1000 stepped steps of the full system at
    n = 100 took 1.2-1.3 times as long as at 0 or 32 (x86-64, one BLAS
    thread), so the stepped path's speed hung on where its buffers landed."""
    size = math.prod(shape)
    buf = np.zeros(size + 7)
    first = -buf.ctypes.data % 64 // 8
    return buf[first:first + size].reshape(shape)


class _Stages:
    """Buffers and weights of RK4 steps of the state rows (rows, n).

    X stacks the products R_4, ..., R_1 of a step's four stages over z_1,
    its state, as rows of n. R_s is (rows + 1, (m + 1) n): row 0 holds the
    virtual [0, b_1..b_m] and the rest z_s G^T, G = [A; N_1..N_m], so that
    block (i, j) is N_j y_i (N_0 = A) with y_0 a virtual state whose
    N_j-images are the columns b_j of B. Row k of W(u) R is
    A y_k + sum_j u_j N_j y_{k-shift}, and row 1 also takes
    B u = sum_j u_j N_j y_0, which for the cascade (shift = 1) is that sum.
    A stage input, or the next state, is then one product of a weight matrix
    (_TABLEAU, with the identity on z_1) by the last rows of X, the products
    of the stages so far and z_1: z_1 comes last, so that the products sum
    before it is added, as in the textbook step. W views the four weight
    matrices of `chunk` steps, whose identity and A terms are written once;
    _rk4_step writes their input terms.
    """

    def __init__(self, sys: BilinearSystem, rows: int, shift: int, h: float):
        n, m = sys.n, sys.m
        cols, offsets, self.chunk, row, over_h, self.put, template = \
            _stage_terms(rows, m, shift)
        self.template = h * template
        G = _aligned((m + 1, n, n))
        G[0], G[1:] = sys.A, sys.N
        self.GT = G.reshape(-1, n).T
        X = _aligned((cols[-1], n))
        R = X[:-rows].reshape(4, rows + 1, m + 1, n)[::-1]
        R[:, 0, 1:] = sys.B.T
        self.z, self.Z = X[-rows:], np.empty((3, rows, n))
        self.X = [X[-c:] for c in cols]
        self.R = [Rs[1:].reshape(rows, -1) for Rs in R]
        self.weights = np.tile(row + h * over_h, (self.chunk, 1))
        self.W = [self.weights[:, o:o + rows * c].reshape(-1, rows, c)
                  for o, c in zip(offsets, cols)]


def _rk4_step(stages: _Stages, Y: np.ndarray, run: np.ndarray,
              Un: np.ndarray, Um: np.ndarray) -> None:
    """Write the states of RK4 steps from Y (rows, n) into run (rows, L, n),
    for node samples Un (L + 1, m) and midpoint samples Um (L, m).

    Each stage is two products into fixed buffers: z_s G^T into R_s, and the
    combination over z_1 and R_1..R_s into the next stage's input, or the
    next state straight into run (_Stages). The input terms of a chunk of
    steps are one product of their node, midpoint and next-node samples by
    the template.
    """
    mm, GT, z, (Z1, Z2, Z3) = np.matmul, stages.GT, stages.z, stages.Z
    (R1, R2, R3, R4), (X1, X2, X3, X4) = stages.R, stages.X
    samples = np.concatenate([Un[:-1], Um, Un[1:]], axis=1)
    states = run.swapaxes(0, 1)
    z[...] = Y
    for first in range(0, len(samples), stages.chunk):
        chunk = samples[first:first + stages.chunk]
        stages.weights[:len(chunk), stages.put] = chunk @ stages.template
        for y, W1, W2, W3, W4 in zip(states[first:first + stages.chunk], *stages.W):
            mm(z, GT, out=R1)
            mm(W1, X1, out=Z1)
            mm(Z1, GT, out=R2)
            mm(W2, X2, out=Z2)
            mm(Z2, GT, out=R3)
            mm(W3, X3, out=Z3)
            mm(Z3, GT, out=R4)
            mm(W4, X4, out=y)
            z[...] = y


def _band_apply(X: np.ndarray, T: np.ndarray, r=None, out=None) -> np.ndarray:
    """out[k] = sum_d X[k - d] @ T[d] (+ r[k]) over the orders k on axis 0.

    A run map moves the state rows y_1..y_rows by one band of n x n blocks,
    y_k -> sum_d y_{k-d} T_d + r_k: a single block for the full system or an
    undriven cascade, one per order for a driven cascade. Over the orders this
    is a product of block lower-triangular Toeplitz matrices, so the same call
    also composes two maps (X = T), in b (b + 1) / 2 block products for b bands.
    """
    out = np.matmul(X, T[0], out=out)
    for d in range(1, len(T)):
        out[d:] += X[:-d] @ T[d]
    if r is not None:
        out += r
    return out


def _compose(first, then):
    """The band map (T, r) `first` followed by `then`: x -> (x T1 + r1) T2 + r2.

    Also stacked: maps (b, S, n, n) with shifts (rows, S, 1, n) compose pairwise
    over S. r = None stands for a zero shift.
    """
    (T1, r1), (T2, r2) = first, then
    return _band_apply(T1, T2), (r2 if r1 is None else _band_apply(r1, T2, r2))


def _finite(T: np.ndarray, r) -> bool:
    return bool(np.isfinite(T).all() and (r is None or np.isfinite(r).all()))


def _square_to(powers: list, count: int) -> bool:
    """Extend the powers [F, F^2, F^4, ...] of one run map to count entries,
    each squared from the last; False where one is not finite."""
    # F was checked before any square of it was kept
    if len(powers) == 1 and not _finite(*powers[0]):
        return False
    while len(powers) < count:
        square = _compose(powers[-1], powers[-1])
        if not _finite(*square):
            return False
        powers.append(square)
    return True


def _fill(Y: np.ndarray, run: np.ndarray, powers: list) -> bool:
    """Write F(Y), F^2(Y), ..., F^steps(Y) into run (rows, steps, n), from the
    powers [F, F^2, F^4, ...] of one run map (_square_to).

    Steps [0, P) mapped by F^P give steps [P, 2P), one band product over all
    their states, for P = 1, 2, 4, ... Returns False, with run untouched, when
    a power is not finite, as _reduce does.
    """
    steps = run.shape[1]
    levels = (steps - 1).bit_length()
    if not _square_to(powers, levels):
        return False
    _band_apply(Y[:, None], *powers[0], out=run[:, :1])
    for i in range(levels):
        P = 1 << i
        _band_apply(run[:, :min(P, steps - P)], *powers[i], out=run[:, P:2 * P])
    return True


def _norm1(T: np.ndarray, r) -> float:
    """1-norm of a band map (T, r) in the augmented form [[T, 0], [r, 1]] over
    all its state rows: the largest factor by which it can raise max |y|, or
    1 for the row that carries the constant."""
    cols = np.cumsum(np.abs(T).sum(axis=1), axis=0)
    if r is not None:
        cols = cols[np.minimum(np.arange(len(r)), len(T) - 1)] + np.abs(r[:, 0])
    return max(float(cols.max()), 1.0)


def _projection(powers: list, CT: np.ndarray, steps: int):
    """The outputs of F, F^2, ..., F^steps of one run map, for any state:
    (Z, rho, grow) with Z (b, n, steps p) and rho (rows, steps p) or None,
    so that the outputs from the state rows Y are Y Z + rho, band by band
    (_band_apply), step j in columns [j p, (j + 1) p).

    Powers of one map commute, so the projected powers double as _fill's
    states do: Z_{j+P} = T^(P) Z_j and rho_{j+P} = r^(P) Z_j + rho_j. The
    powers go up to F^P for the largest P <= steps, which maps a state over
    a whole chunk. grow, the 1-norm (_norm1) of F times those of all these
    powers, bounds max |y| over the chunk from Y, and the state after it, by
    max(max |Y|, 1) grow. Returns None where a power or a projection is not
    finite.
    """
    if not _square_to(powers, steps.bit_length()):
        return None
    (T, r), p = powers[0], CT.shape[1]
    Z = np.empty(T.shape[:2] + (steps * p,))
    np.matmul(T, CT, out=Z[..., :p])
    rho = None if r is None else np.empty((len(r), steps * p))
    if r is not None:
        np.matmul(r[:, 0], CT, out=rho[:, :p])
    for i in range((steps - 1).bit_length()):
        P, Q = (1 << i) * p, min(1 << i, steps - (1 << i)) * p
        Ti, ri = powers[i]
        if r is not None:
            _band_apply(ri[:, 0], Z[..., :Q], rho[:, :Q], out=rho[:, P:P + Q])
        _band_apply(Ti, Z[..., :Q], out=Z[..., P:P + Q])
    if not _finite(Z, rho):
        return None
    grow = _norm1(T, r) * math.prod(_norm1(*F) for F in powers[:steps.bit_length()])
    return Z, rho, grow


_HUGE = np.finfo(float).max


def _advance(Y: np.ndarray, powers: list, steps: int) -> np.ndarray:
    """Y mapped by F^steps, by the powers [F, F^2, F^4, ...] of its binary digits."""
    for i in range(steps.bit_length()):
        if steps >> i & 1:
            T, r = powers[i]
            Y = _band_apply(Y, T, None if r is None else r[:, 0])
    return Y


def _project(Y: np.ndarray, out: np.ndarray, powers: list, projection, h: float):
    """Write the outputs of F(Y), ..., F^L(Y) into out (rows, L, p), a slice
    of steps of the output array, from the run map's projection for chunks of
    c steps.

    The full chunks go in groups (_group): each chunk's first state is one
    band product by F^c from the one before, all of a group's are checked at
    once, and its outputs are one batched band product of them by the
    projection, written straight into out. A last partial chunk is one
    product by the projection's first columns. The state after a group or a
    partial chunk is mapped by the powers of its length's binary digits.

    Returns the steps written and the state after them. A chunk is written
    only where the bound max(max |Y|, 1) grow 12 / h on its states and stage
    sums (see _check) is finite, for Y its first state, so that a state that
    would overflow is formed by the caller and named by its check.
    """
    Z, rho, grow = projection
    rows, L, p = out.shape
    n, c = Y.shape[1], Z.shape[-1] // p
    flat = out.reshape(rows, L * p)  # a view: a slice of steps keeps (L, p) contiguous
    # the bound is finite while max |Y| <= limit, and limit >= 1
    limit = _HUGE / (grow * (12.0 / h))
    if not limit >= 1.0:
        return 0, Y
    done = 0
    if c <= L:
        # F^c, used only where a group has two chunks: then c < L is a power of two
        T, r = powers[c.bit_length() - 1]
        r = None if r is None else r[:, 0]
        starts = np.empty((rows, min(_group(rows, n, len(Z), c * p), L // c), n))
        while done + c <= L:
            k = min(starts.shape[1], (L - done) // c)
            S = starts[:, :k]
            S[:, 0] = Y
            for j in range(1, k):
                _band_apply(S[:, j - 1], T, r, out=S[:, j])
            if not max(S.max(), -S.min()) <= limit:
                # the first refused chunk: those before it are written
                k = int(np.argmin(np.maximum(S.max(axis=(0, 2)), -S.min(axis=(0, 2))) <= limit))
            if k:
                chunks = flat[:, done * p:(done + k * c) * p].reshape(rows, k, c * p)
                _band_apply(S[:, :k], Z, None if rho is None else rho[:, None], out=chunks)
            if k < S.shape[1]:
                return done + k * c, S[:, k].copy()
            Y = _advance(S[:, -1], powers, c)
            done += k * c
    if done < L:
        if not max(Y.max(), -Y.min()) <= limit:
            return done, Y
        steps = L - done
        _band_apply(Y, Z[..., :steps * p], None if rho is None else rho[:, :steps * p],
                    out=flat[:, done * p:])
        Y = _advance(Y, powers, steps)
    return L, Y


def _step_maps(sys: BilinearSystem, Un: np.ndarray, Um: np.ndarray, h: float,
               rows: int, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """The maps (T, r) of L steps, stacked on axis 1: T (b, L, n, n) in bands,
    r (rows, L, 1, n), from node samples Un (L + 1, m) and midpoint samples
    Um (L, m). A run's map F is the one step of its u (L = 1), whose three
    samples share one generator.

    Each sample u gives the generator G = (L(u), c(u)) of y' = y L + c in
    bands: A^T + N(u)^T for the full system; A^T and N(u)^T one order down
    for the cascade; c = B u into order 1. With P = (I + a T, a r) for a
    step's G_0, G_m, G_1, the step is I + h/6 (G_0 + 2 Q_1 + 2 Q_2 + Q_3),
    Q_1 = P(h/2, G_0) G_m, Q_2 = P(h/2, Q_1) G_m, Q_3 = P(h, Q_2) G_1:
    three stacked products, each with a map whose constant term is 1. The
    maps have b = rows bands where N(u) drives a cascade's orders, else one.
    """
    n, L = sys.n, Um.shape[0]
    u = np.concatenate([Un, Um])
    NuT = (u @ sys.N.reshape(sys.m, -1)).reshape(-1, n, n).swapaxes(1, 2)
    c = np.zeros((rows, len(u), 1, n))
    c[0, :, 0] = u @ sys.B.T
    # node, next-node and midpoint samples, or a run's one sample for all three
    node, after, mid = slice(L), slice(1, L + 1), slice(L + 1, None)
    if L == 1 and (u == u[0]).all():
        NuT, c, node, after, mid = NuT[:1], c[:, :1], *(slice(None),) * 3
    b = rows if NuT.any() else 1
    g = min(b, 2)
    # C-ordered generators: a transposed operand takes another BLAS path,
    # which rounds the products below differently
    if shift == 0:
        G = np.add(sys.A.T, NuT, order="C")[None]
    elif b == 1:
        G = np.broadcast_to(np.ascontiguousarray(sys.A.T), (1, len(NuT), n, n))
    else:
        G = np.zeros((b, len(NuT), n, n))
        G[0] = sys.A.T
        G[shift] += NuT
    if b == 1:
        eye = np.eye(n)
    else:
        eye = np.zeros((b, 1, n, n))
        eye[0, 0] = np.eye(n)
    G0, c0 = G[:, node], c[:, node]
    Gm = G[:g, mid], c[:, mid]
    Q1 = _compose((eye + (h / 2.0) * G0, (h / 2.0) * c0), Gm)
    Q2 = _compose((eye + (h / 2.0) * Q1[0], (h / 2.0) * Q1[1]), Gm)
    Q3 = _compose((eye + h * Q2[0], h * Q2[1]), (G[:g, after], c[:, after]))
    return (eye + (h / 6.0) * (G0 + 2.0 * (Q1[0] + Q2[0]) + Q3[0]),
            (h / 6.0) * (c0 + 2.0 * (Q1[1] + Q2[1]) + Q3[1]))


def _reduce(Y: np.ndarray, out: np.ndarray, T: np.ndarray, r: np.ndarray) -> bool:
    """Write the states of the stacked maps (T, r), applied in turn from Y
    (rows, 1, 1, n), into out (rows, L, 1, n) by pairwise reduction.

    Neighbouring maps are composed (L/2 products) and the states at even
    steps come from those by recursion; the odd ones follow from them in one
    stacked apply. That is about L products in log2 L rounds. Returns False,
    with out unfinished, when a map or a product is not finite: 0 @ inf is
    NaN where stepping keeps a zero state zero, so the caller steps instead.
    """
    if not _finite(T, r):
        return False
    L = T.shape[1]
    if L > 1 and not _reduce(Y, out[:, 1::2], *_compose((T[:, :L - 1:2], r[:, :L - 1:2]),
                                                        (T[:, 1::2], r[:, 1::2]))):
        return False
    prev = np.concatenate([Y, out[:, 1:L - 1:2]], axis=1)
    _band_apply(prev, T[:, ::2], r[:, ::2], out=out[:, ::2])
    return True


# How a step is taken: one RK4 step, a run map over the states, the pairwise
# reduction, or a run map over the outputs alone.
STEP, MAP, REDUCE, PROJECT = 0, 1, 2, 3

# linalg.STACK bounds the doubles in one stacked array of step maps
# (rows, L, n, n): a reduced stretch holds about ten such arrays at once, so
# it is at most STACK // (rows n^2) steps long, and its maps take a few MB at
# most whatever n and K are. A run's projection (b, n, c p) for chunks of c
# steps holds at most RUN_STACK doubles (_chunk), and the arrays that a group
# of its chunks adds at most GROUP (_group).
RUN_STACK = 2 ** 15
GROUP = 2 ** 12

# Cost of one numpy call on the small operands of an RK4 step, in
# multiply-adds of stacked small products. Measured on x86-64 with one BLAS
# thread: a stepped forced step at n = 4 (nine calls, a few hundred
# multiply-adds) takes 10-16 us, 1.1-1.8 us a call, and the reduction at
# n = 20 runs its 4 n^3 multiply-adds per step at about 0.8-0.9 ns each, so a
# call is worth 1000-2000 of them. At 1000, stepping and the reduction break
# even in the model where they do in time (_mapped).
CALL = 1000


def _projected_costs(n: int, p: int, rows: int, b: int) -> tuple[int, int]:
    """The costs (_mapped) of a run filled over its outputs, for maps of b
    bands: of each step of its projection (b (b + 1) (n + rows) n p / 2),
    and of each chunk's first state (one band apply and 2 b calls)."""
    pairs, band = b * (b + 1) // 2, rows * b - b * (b - 1) // 2
    return n * p * (n + rows) * pairs, n * n * band + CALL * 2 * b


def _chunk(n: int, p: int, rows: int, b: int, L: int) -> int:
    """Steps in a chunk of a run of L steps filled over its outputs, for
    maps of b bands (_projection, _project).

    A chunk of c steps costs c e to project, and the run's chunks cost
    (L / c) a for their first states (_projected_costs), least at c =
    sqrt(L a / e). c is the power of two at or above that, at most L, and
    at most the largest at which the projection (b, n, c p) and its shift
    (rows, c p) hold RUN_STACK doubles each.
    """
    e, a = _projected_costs(n, p, rows, b)
    best = math.ceil(math.sqrt(L * a / e))
    cap = max(RUN_STACK // (max(b * n, rows) * p), 1)
    return min(1 << (best - 1).bit_length(), 1 << (cap.bit_length() - 1), L)


def _group(rows: int, n: int, b: int, width: int) -> int:
    """Chunks of a run projected at once (_project), for maps of b bands and
    width = c p outputs per chunk: their first states (rows, G, n) and, where
    b > 1, the band products summed into their outputs (rows - 1, G, width)
    hold at most GROUP doubles."""
    return max(GROUP // (rows * n + (b > 1) * (rows - 1) * width), 1)


def _stretches(mask: np.ndarray, *cuts: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, stop) of each run of True in mask, also split before each
    multiple of every cut."""
    head, tail = mask.copy(), mask.copy()
    head[1:] &= ~mask[:-1]
    tail[:-1] &= ~mask[1:]
    for cut in cuts:
        head[::cut] = mask[::cut]
        tail[cut - 1::cut] = mask[cut - 1::cut]
    return np.flatnonzero(head), np.flatnonzero(tail) + 1


def _mapped(sys: BilinearSystem, U: np.ndarray, steady: np.ndarray,
            rows: int, shift: int, block: int, span: int) -> np.ndarray:
    """How each step is taken: MAP, PROJECT, REDUCE or STEP, by the cheapest
    count of multiply-adds, with CALL for each numpy call.

    For a stretch of L steps whose maps have b bands of n x n blocks:
    - stepping takes 4 (m + 1) rows n^2 and 9 calls per step, eight
      products and a copy (_rk4_step); its stage products run at a fraction
      of the reduction's time per multiply-add, so the combinations'
      rows n (4 rows + 10 (rows + 1) (m + 1)) are not counted;
    - forming one step map (_step_maps) takes 3 (g b - g + 1) n^3 for
      g = min(b, 2) generator bands;
    - a steady run forms one map, with b = rows when its input drives the
      cascade's orders, else 1, and takes b (b + 1) n^3 / 2 per squaring, one
      per doubling level within a block, (rows b - b (b - 1) / 2) n^2 per step
      to apply, and 20 calls plus 6 (b + 1) per level, then 20 plus
      2 (b + 1) per level for each further block;
    - a steady run over its outputs squares to its chunk of c steps (_chunk,
      which takes the c that minimises the two terms of _projected_costs),
      projects c powers through C (b (b + 1) (n + rows) n p c / 2) and takes
      (rows b - b (b - 1) / 2) n p per step for the outputs, 20 calls plus
      8 (b + 1) + 6 per power (a squaring, its norm and its projection),
      per chunk one state apply and 2 b calls for its first state, and
      12 + 4 b calls per group of chunks (_group) for their check, their
      outputs and the state after them;
    - a forced stretch within a block and a span (the span steps from a
      multiple of span), reduced, forms one map per step with b = rows, and
      takes about one composition (b (b + 1) n^3 / 2 for the band, as much
      n^2 for the shift) and one apply (b (b + 1) n^2 / 2) per step, and 40
      calls plus 6 (b + 1) per round, of which there are log2 L + 1.
    Formed states are projected through C in one product per block, which is
    not counted, so the projection wins only where its outputs and its calls
    per chunk cost less than the state products it saves: it loses where p
    nears n. A steady run takes the cheaper of its two fills when that is
    cheaper than stepping it, and every other stretch within a block is
    reduced when that is cheaper. Stepping costs calls and the others flops,
    so the reduction takes small states and long stretches, the projection
    long runs of few outputs, and stepping the rest. For 2500 sine-forced
    steps with m = 2, stepping and the reduction take the same time at about
    n = 14 for the full system and n = 6 for a K = 4 cascade, and the model
    steps from n = 14 and n = 6-8 on.
    """
    n, m, p = sys.n, sys.m, sys.p

    def form(b):
        g = min(b, 2)
        return 3 * (g * b - g + 1) * n ** 3

    per_step = 4 * (m + 1) * rows * n * n + 9 * CALL
    via = np.full(steady.size, STEP, dtype=np.int8)
    first, last = _stretches(steady)
    drives = sys.N.reshape(m, -1).any(axis=1)
    driven = (U[first][:, drives] != 0).any(axis=1)
    # runs are few: scalar sums cost less than numpy calls on short arrays
    for a, z, d in zip(first.tolist(), last.tolist(), driven.tolist()):
        # the full system has one row, so its maps have one band either way
        L, b = z - a, rows if d else 1
        band, pairs = rows * b - b * (b - 1) // 2, b * (b + 1) // 2
        levels = max(min(L, block) - 1, 1).bit_length() - 1
        by_map = (form(b) + n ** 3 * levels * pairs + L * n * n * band
                  + CALL * (20 + 6 * (b + 1) * levels
                            + (math.ceil(L / block) - 1) * (20 + 2 * (b + 1) * levels)))
        e, a_chunk = _projected_costs(n, p, rows, b)
        c = _chunk(n, p, rows, b, L)
        count, chunks = c.bit_length(), math.ceil(L / c)
        by_project = (form(b) + n ** 3 * (count - 1) * pairs + c * e + L * n * p * band
                      + chunks * a_chunk
                      + CALL * (20 + (8 * (b + 1) + 6) * count
                                + math.ceil(chunks / _group(rows, n, b, c * p)) * (12 + 4 * b)))
        if min(by_map, by_project) < L * per_step:
            via[a:z] = PROJECT if by_project < by_map else MAP
    first, last = _stretches(via == STEP, block, span)
    L = last - first
    b = rows
    by_reduce = (L * (form(b) + n * n * b * (b + 1) / 2 * (n + 2))
                 + CALL * (40 + 6 * (b + 1) * (np.ceil(np.log2(L)) + 1)))
    cheaper = by_reduce < L * per_step
    for a, z in zip(first[cheaper], last[cheaper]):
        via[a:z] = REDUCE
    return via


def _steady(U: np.ndarray, Um: np.ndarray) -> np.ndarray:
    """The steps whose node, midpoint and next-node samples (U, Um) are one
    vector: the channels are AND-ed in turn, as .all(axis=1) on (steps, m)
    is slow."""
    return functools.reduce(np.logical_and, ((U[:-1] == Um) & (Um == U[1:])).T)


def _check(states: np.ndarray, prev: np.ndarray, first: int, grid: TimeGrid) -> None:
    """Raise at the first of the steps first + 1, ... whose state in states
    (rows, L, n), from prev (rows, n), is not finite or has a stage sum that is
    not.

    A step stands while its state and its stage sum k1 + 2 k2 + 2 k3 + k4 =
    6 (y_k - y_{k-1}) / h are finite: a forced step forms that sum, and mapped
    steps are held to the same test. It is bounded by 12 / h times the
    largest entry, so the per-step test runs only where that bound overflows.
    """
    h = grid.dt
    size = np.maximum(states.max(), -states.min())
    if not np.isfinite(size * (12.0 / h)):
        path = np.concatenate([prev[:, None], states], axis=1)
        finite = np.isfinite(np.diff(path, axis=1) * (6.0 / h)).all(axis=(0, 2))
        if not finite.all():
            node = first + 1 + int(np.argmin(finite))
            raise FloatingPointError(
                f"RK4 state became non-finite at step {node} "
                f"(t = {grid.t0 + h * node:.6g}, dt = {h:.6g})")


def _rk4(sys: BilinearSystem, u: SampledSignal, grid: TimeGrid,
         Y0: np.ndarray, shift: int) -> np.ndarray:
    """RK4 for the rows of the state Y (rows, n); outputs (rows, nodes, p).

    shift = 0 is the full system (one row); shift = 1 is the cascade, where
    row k - 1 drives row k through the N_j (see _Stages). A step whose node,
    midpoint and next-node samples are one vector u belongs to a run. Each
    stretch of steps within a block is filled by doubling with the powers of
    its run's map over the states (_fill), by the pairwise reduction of its
    step maps (_reduce) or by RK4 steps, or its run is filled over the
    outputs alone (_projection, _project), as _mapped decides. A projected
    run needs no buffer, so it goes on across blocks to its end, and the
    next block starts there. The fills fall back to steps where a map or a
    product is not finite, and the projection to the state fill where its
    bound on the states is not. The powers and the projection are formed
    once and held for the current run's u. A reduced stretch also ends at
    each multiple of span, which bounds its stack of maps (STACK). Formed
    states are checked (_check) and projected through C once per stretch of
    them between projected runs.
    """
    require_explicit(sys)
    if u.m != sys.m:
        raise ValueError(f"signal has {u.m} channels; system expects {sys.m}")
    if grid.nodes < 2:
        raise ValueError("grid has no integration steps (needs at least 2 nodes)")
    if grid == u.grid:
        U = u.values

        def mid(a, b):
            # the midpoint samples of steps a..b-1, formed where needed rather
            # than held for the whole grid
            Um = U[a:b] + U[a + 1:b + 1]
            Um *= 0.5
            return Um
    else:
        times = grid.times()
        U = u.at_many(times)
        Um = u.at_many(times[:-1] + 0.5 * grid.dt)

        def mid(a, b):
            return Um[a:b]
    n, h, rows = sys.n, grid.dt, Y0.shape[0]
    block = min(max(BLOCK_ROWS // rows, 1), grid.nodes - 1)
    span = min(max(STACK // (rows * n * n), 1), block)
    # Two runs never touch: the step across a change of level is forced.
    via = _mapped(sys, U, _steady(U, mid(0, grid.nodes - 1)), rows, shift, block, span)
    # steps where a stretch taken one way begins, and multiples of span
    # within reduced stretches (a mask: np.union1d imports numpy.ma on first
    # use, about 30 ms and 1 MB per process)
    begins = np.zeros(via.size, dtype=bool)
    begins[1:] = via[1:] != via[:-1]
    begins[::span] |= via[::span] == REDUCE
    edges = np.flatnonzero(begins)
    CT = sys.C.T
    out = np.empty((rows, grid.nodes, sys.p))
    out[:, 0] = Y0 @ CT
    buf = np.empty((rows, block, n))
    Y, u_run, powers, projection, stages = Y0, None, None, None, None

    def settle(first, last, prev):
        # check and project the states of steps first + 1 .. last, from prev
        states = buf[:, first - start:last - start]
        _check(states, prev, first, grid)
        out[:, first + 1:last + 1] = states @ CT

    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while start < grid.nodes - 1:
            stop = min(start + block, grid.nodes - 1)
            cuts = edges[np.searchsorted(edges, start, "right"):
                         np.searchsorted(edges, stop)]
            bounds = [start, *cuts.tolist(), stop]
            # buf holds the states of steps first + 1, ... from prev, unsettled
            first, prev = start, Y
            for a, b in zip(bounds[:-1], bounds[1:]):
                how = via[a]
                if how in (MAP, PROJECT) and (u_run is None or (u_run != U[a]).any()):
                    powers = projection = None  # free the last run's arrays first
                    T, r = _step_maps(sys, U[a:a + 2], mid(a, a + 1), h, rows, shift)
                    u_run, powers = U[a], [(T[:, 0], r[:, 0] if r.any() else None)]
                if how == PROJECT:
                    # the outputs need no buffer: project to the run's end
                    i = np.searchsorted(edges, a, "right")
                    end = edges[i] if i < edges.size else grid.nodes - 1
                    if projection is None:  # False once refused for this run
                        c = _chunk(n, sys.p, rows, len(powers[0][0]), int(end - a))
                        projection = _projection(powers, CT, c) or False
                    if projection:
                        if first < a:
                            settle(first, a, prev)
                        done, Y = _project(Y, out[:, a + 1:end + 1], powers, projection, h)
                        first, prev = a + done, Y
                        if first >= b:
                            continue
                        a = first
                    how = MAP
                run = buf[:, a - start:b - start]
                if not (how == MAP and _fill(Y, run, powers)
                        or how == REDUCE and _reduce(
                            Y[:, None, None], run[:, :, None],
                            *_step_maps(sys, U[a:b + 1], mid(a, b), h, rows, shift))):
                    stages = stages or _Stages(sys, rows, shift, h)
                    _rk4_step(stages, Y, run, U[a:b + 1], mid(a, b))
                Y = run[:, -1].copy()
            if first < stop:
                settle(first, stop, prev)
            start = max(first, stop)
    return out


def ode_direct(sys: BilinearSystem, u: SampledSignal, grid: TimeGrid) -> OutputSeries:
    """RK4 integration of x' = (A + sum_j N_j u_j(t)) x + B u(t); y = C x."""
    return OutputSeries(grid, _rk4(sys, u, grid, sys.x0[None], shift=0)[0])


def volterra_cascade(sys: BilinearSystem, u: SampledSignal, K: int,
                     grid: TimeGrid) -> ResponseSeries:
    """Integrate the first K coupled subsystems of the Volterra cascade.

    x_1' = A x_1 + B u with x_1(0) = x0, and for k >= 2
    x_k' = A x_k + (sum_j N_j u_j) x_{k-1} with x_k(0) = 0.
    """
    if int(K) < 1:
        raise ValueError("truncation order K must be >= 1")
    Y0 = np.zeros((int(K), sys.n))
    Y0[0] = sys.x0
    return ResponseSeries(grid, _rk4(sys, u, grid, Y0, shift=1))
