"""Time-domain engines: closed-form impulse response, exact nascent-delta
two-phase solution, Volterra cascade simulation, and direct integration.

Simulation uses classical fixed-step RK4 on a uniform grid with inputs
interpolated linearly at half-steps. Both engines share one integrator: each
stage is one product of the state rows with the stacked G = [A; N_1..N_m]
followed by a small input-dependent combination, the full system being one
row and the cascade one row per order. Steps whose three input samples all
vanish apply the free map, the same RK4 step applied once to the identity
with zero input. States go through a fixed block buffer that is checked for
overflow and projected through C once per block, so memory does not grow
with the grid beyond the outputs themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import expm, phi1_apply
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
        if vals.size and not np.all(np.isfinite(vals)):
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
    if eps <= 0:
        raise ValueError("eps must be > 0")
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


def impulse_response(sys: BilinearSystem, mu, t: float) -> np.ndarray:
    """Impulse response C e^{At} (phi1(Nhat) bhat + e^{Nhat} x0) for t > 0."""
    require_explicit(sys)
    if t <= 0:
        raise ValueError("impulse response defined for t > 0 only")
    eff = effective_matrices(sys, mu)
    core = phi1_apply(eff.Nhat, eff.bhat) + expm(eff.Nhat) @ sys.x0
    return sys.C @ (expm(sys.A, t) @ core)


def impulse_response_subsystem(sys: BilinearSystem, mu, k: int,
                               t: float) -> np.ndarray:
    """Order-k impulse response C e^{At} Nhat^{k-1} (bhat/k! + x0/(k-1)!)."""
    require_explicit(sys)
    if k < 1:
        raise ValueError("subsystem order k must be >= 1")
    if t <= 0:
        raise ValueError("impulse response defined for t > 0 only")
    eff = effective_matrices(sys, mu)
    core = eff.bhat / math.factorial(k) + sys.x0 / math.factorial(k - 1)
    for _ in range(k - 1):
        core = eff.Nhat @ core
    return sys.C @ (expm(sys.A, t) @ core)


def nascent_response(sys: BilinearSystem, mu, eps: float, t: float) -> np.ndarray:
    """Exact output under the rectangle pulse mu/eps on [0, eps].

    Two closed-form phases: stiffened dynamics Ahat = A + Nhat/eps while the
    pulse acts, then free flow from the transition state x(eps). The phi1 form
    keeps the pulse phase valid for singular Ahat.
    """
    require_explicit(sys)
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if t < 0:
        raise ValueError("nascent response defined for t >= 0")
    eff = effective_matrices(sys, mu)
    Ahat = sys.A + eff.Nhat / eps
    if t <= eps:
        x = (t / eps) * phi1_apply(Ahat * t, eff.bhat) + expm(Ahat, t) @ sys.x0
    else:
        x_eps = phi1_apply(Ahat * eps, eff.bhat) + expm(Ahat, eps) @ sys.x0
        x = expm(sys.A, t - eps) @ x_eps
    return sys.C @ x


# State rows buffered, checked and projected through C at a time: BLOCK_ROWS
# steps of the full system, BLOCK_ROWS // K steps of a K-order cascade.
BLOCK_ROWS = 1024


def _weights(u: np.ndarray, rows: int, shift: int) -> np.ndarray:
    """W(u) for each input sample u (..., m): an RK4 stage is dY = W(u) @ R.

    R stacks [0, b_1..b_m] over Y G^T, in n-wide blocks: with y_1..y_rows the
    rows of Y and y_0 a virtual state whose N_j-images are the columns b_j of
    B, block (i, j) is N_j y_i (N_0 = A). Row k of dY is
    A y_k + sum_j u_j N_j y_{k-shift}, and row 1 also takes
    B u = sum_j u_j N_j y_0, which for the cascade (shift = 1) is that sum.
    """
    m = u.shape[-1]
    W = np.zeros(u.shape[:-1] + (rows, rows + 1, m + 1))
    k = np.arange(rows)
    W[..., k, k + 1, 0] = 1.0
    W[..., k, k + 1 - shift, 1:] = u[..., None, :]
    W[..., 0, 0, 1:] = u
    return W.reshape(u.shape[:-1] + (rows, -1))


def _rk4_step(Y, h, GT, R, W0, Wh, W1):
    # R (rows + 1, (m + 1) n) comes from _stage_rows: row 0 holds the virtual
    # [0, b_1..b_m], Y G^T goes into the rest. W0, Wh, W1: start, mid, end.
    RY, R2 = R[1:], R.reshape(W0.shape[1], -1)
    np.matmul(Y, GT, out=RY)
    k1 = W0 @ R2
    np.matmul(Y + (0.5 * h) * k1, GT, out=RY)
    k2 = Wh @ R2
    np.matmul(Y + (0.5 * h) * k2, GT, out=RY)
    k3 = Wh @ R2
    np.matmul(Y + h * k3, GT, out=RY)
    k4 = W1 @ R2
    return Y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _stage_rows(sys: BilinearSystem, rows: int) -> np.ndarray:
    R = np.zeros((rows + 1, (sys.m + 1) * sys.n))
    R[0, sys.n:] = sys.B.T.ravel()
    return R


def _rk4(sys: BilinearSystem, u: SampledSignal, grid: TimeGrid,
         Y0: np.ndarray, shift: int) -> np.ndarray:
    """RK4 for the rows of the state Y (rows, n); outputs (nodes, rows, p).

    shift = 0 is the full system (one row); shift = 1 is the cascade, where
    row k - 1 drives row k through the N_j (see _weights). Steps whose three
    input samples all vanish apply the free map, which is this same step
    applied to the identity with u = 0.
    """
    if u.m != sys.m:
        raise ValueError(f"signal has {u.m} channels; system expects {sys.m}")
    if grid.nodes < 2:
        raise ValueError("grid has no integration steps (needs at least 2 nodes)")
    times = grid.times()
    U = u.at_many(times)
    Um = u.at_many(times[:-1] + 0.5 * grid.dt)
    node_zero = ~np.any(U != 0.0, axis=1)
    free = node_zero[:-1] & ~np.any(Um != 0.0, axis=1) & node_zero[1:]
    n, m, h, rows = sys.n, sys.m, grid.dt, Y0.shape[0]
    GT = np.concatenate([sys.A[None], sys.N]).reshape(-1, n).T
    CT = sys.C.T
    out = np.empty((grid.nodes, rows, sys.p))
    out[0] = Y0 @ CT
    buf = np.empty((min(max(BLOCK_ROWS // rows, 1), grid.nodes - 1), rows, n))
    R = _stage_rows(sys, rows)
    Y = Y0
    with np.errstate(over="ignore", invalid="ignore"):
        if free.any():
            W_free = _weights(np.zeros(m), n, 0)
            free_map = _rk4_step(np.eye(n), h, GT, _stage_rows(sys, n),
                                 W_free, W_free, W_free)
        for start in range(0, grid.nodes - 1, buf.shape[0]):
            stop = min(start + buf.shape[0], grid.nodes - 1)
            Wn = _weights(U[start:stop + 1], rows, shift)
            Wm = _weights(Um[start:stop], rows, shift)
            for j, is_free in enumerate(free[start:stop].tolist()):
                if is_free:
                    Y = Y @ free_map
                else:
                    Y = _rk4_step(Y, h, GT, R, Wn[j], Wm[j], Wn[j + 1])
                buf[j] = Y
            block = buf[:stop - start]
            finite = np.isfinite(block).reshape(block.shape[0], -1).all(axis=1)
            if not finite.all():
                node = start + 1 + int(np.argmin(finite))
                raise FloatingPointError(
                    f"RK4 state became non-finite at step {node} "
                    f"(t = {times[node]:.6g}, dt = {h:.6g})")
            out[start + 1:stop + 1] = block @ CT
    return out


def ode_direct(sys: BilinearSystem, u: SampledSignal, grid: TimeGrid) -> OutputSeries:
    """RK4 integration of x' = (A + sum_j N_j u_j(t)) x + B u(t); y = C x."""
    require_explicit(sys)
    out = _rk4(sys, u, grid, sys.x0[None], shift=0)
    return OutputSeries(grid, out[:, 0])


def volterra_cascade(sys: BilinearSystem, u: SampledSignal, K: int,
                     grid: TimeGrid) -> ResponseSeries:
    """Integrate the first K coupled subsystems of the Volterra cascade.

    x_1' = A x_1 + B u with x_1(0) = x0, and for k >= 2
    x_k' = A x_k + (sum_j N_j u_j) x_{k-1} with x_k(0) = 0.
    """
    require_explicit(sys)
    if int(K) < 1:
        raise ValueError("truncation order K must be >= 1")
    Y0 = np.zeros((int(K), sys.n))
    Y0[0] = sys.x0
    out = _rk4(sys, u, grid, Y0, shift=1)
    return ResponseSeries(grid, np.ascontiguousarray(out.transpose(1, 0, 2)))
