"""Independent numerical oracles closing the loop between time and frequency domain.

laplace_quadrature integrates kernel * exp(-sum s_i t_i) with composite
Gauss-Legendre panels and reports an analytic truncation-tail bound next to a
half-resolution discretization estimate, so agreement with the closed-form
transfer functions is a falsifiable inequality. Its node exponentials,
shifted by the spectral abscissa, come from six expm calls per run (the
first panel's five nodes and one panel width) and one matrix product per
panel; the transient growth in the tail bound is sampled on the fine run,
once per system and (T, panels), and kept on the system. aux_output_2d
convolves the boundary-adjusted order-2 kernels with an input signal on an
aligned lattice; eps_sweep is a convergence probe. symmetry_probe checks
eval_symmetric against the symmetrisation of the triangular kernel, and
phi1_bounds_probe checks the bounds of phi1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .kernels import eval_symmetric, eval_triangular
from .linalg import expm, phi1_apply
from .response import SampledSignal, impulse_response, nascent_response
from .system import BilinearSystem, _channels_tuple, require_explicit
from .transfer import _freq_tuple, _kind_rules, roc_margin

__all__ = [
    "QuadratureEstimate",
    "SweepReport",
    "laplace_quadrature",
    "suggest_truncation",
    "aux_output_2d",
    "eps_sweep",
    "symmetry_probe",
    "phi1_bounds_probe",
    "richardson_limit",
]

# 5-point Gauss-Legendre rule on [-1, 1].
_GL5_NODES = np.array([
    -0.906179845938664, -0.5384693101056831, 0.0,
    0.5384693101056831, 0.906179845938664,
])
_GL5_WEIGHTS = np.array([
    0.23692688505618908, 0.47862867049936647, 0.5688888888888889,
    0.47862867049936647, 0.23692688505618908,
])


@dataclass(frozen=True)
class QuadratureEstimate:
    """Quadrature value with its truncation tail bound and discretization estimate."""

    value: np.ndarray
    truncation: float
    panels: int
    tail_bound: float
    discretization_estimate: float


@dataclass(frozen=True)
class SweepReport:
    """Errors of the nascent response against the impulse response over an eps list."""

    eps: tuple[float, ...]
    errors: np.ndarray
    ratios: np.ndarray
    order: float | None


def _gl_points(T: float, panels: int):
    width = T / panels
    mids = width * (np.arange(panels) + 0.5)
    ts = (mids[:, None] + 0.5 * width * _GL5_NODES[None, :]).ravel()
    wts = np.tile(0.5 * width * _GL5_WEIGHTS, panels)
    return ts, wts


def _tail_bound(sys: BilinearSystem, chs, margins, growth: float) -> float:
    k = len(margins)
    scale = np.linalg.norm(sys.C, 2) * np.linalg.norm(sys.B[:, chs[0] - 1])
    for j in chs[1:]:
        scale *= np.linalg.norm(sys.N[j - 1], 2)
    tails = 0.0
    for i in range(k):
        term = math.exp(-margins[i][1]) / margins[i][0]
        for jj in range(k):
            if jj != i:
                term /= margins[jj][0]
        tails += term
    return 2.0 * scale * growth ** k * tails


def _exponents(sys: BilinearSystem, ss: tuple[complex, ...], kind: str):
    """Laplace exponents of a regular or triangular kernel and their ROC margin."""
    if kind not in ("regular", "triangular"):
        raise ValueError(f"unknown quadrature kind {kind!r}")
    margin = roc_margin(sys, ss, kind)
    if margin <= 0:
        raise ValueError(
            f"frequency tuple outside the region of convergence (margin {margin:.3e})")
    _, exponents = _kind_rules(kind)
    return exponents(ss), margin


def laplace_quadrature(sys: BilinearSystem, channels, kind: str, s,
                       T: float, panels: int) -> QuadratureEstimate:
    """Numerically Laplace-transform an order-k kernel over a truncated domain.

    Regular kernels are integrated over the box [0, T]^k. Triangular kernels
    are integrated after the cumulative-sum change of variables, i.e. over the
    box in difference coordinates with exponents at the partial sums
    s_1 + ... + s_i, which covers the ordered simplex of diameter T. The
    integrand factorizes along axes, so each axis is one composite 5-point
    Gauss-Legendre sum over matrix exponentials.

    With alpha the spectral abscissa of A, each factor e^{At} e^{-z t} is
    formed as e^{(A - alpha I) t} e^{-(z - alpha) t}, so it overflows neither
    for an unstable A inside the region of convergence nor for a strongly
    stable A on a long horizon. Panel p's exponentials are e^{(A - alpha I) w},
    w = T / panels, times panel p - 1's: a run makes six expm calls and one
    product per panel, and raises FloatingPointError naming the panel where
    that product overflows. The growth max ||e^{(A - alpha I) t}||_2 of the
    tail bound depends on A, T and panels only. It is sampled at every node of
    the fine run once per system and (T, panels), and stored on the system
    when that run ends without an error; later calls skip the 2-norms but
    still form and check every panel. The coarse run (panels // 2, or 2 for
    one panel) gives the discretization estimate.
    """
    require_explicit(sys)
    ss = _freq_tuple(s)
    k = len(ss)
    if k > 3:
        raise ValueError(f"laplace_quadrature supports kernel orders k <= 3, got k = {k}")
    chs = _channels_tuple(sys, channels, k)
    panels = int(panels)
    if panels < 1:
        raise ValueError("panels must be >= 1")
    if T <= 0:
        raise ValueError("truncation horizon T must be > 0")
    sig, _ = _exponents(sys, ss, kind)
    abscissa = sys.spectral_abscissa
    shifted = sys.A - abscissa * np.eye(sys.n)

    def run(P: int, sample_growth: bool):
        ts, wts = _gl_points(T, P)
        ts, wts = ts.reshape(P, 5), wts.reshape(P, 5)
        damped = wts * np.exp(-np.multiply.outer(np.array(sig) - abscissa, ts))
        block = np.stack([expm(shifted, t) for t in ts[0]])
        step = expm(shifted, T / P)
        axis = np.zeros((k, sys.n, sys.n), dtype=complex)
        growth = 1.0
        for p in range(P):
            if p:
                with np.errstate(over="ignore", invalid="ignore"):
                    block = step @ block
                if not np.all(np.isfinite(block)):
                    raise FloatingPointError(
                        "quadrature overflow: e^((A - alpha I) t) is not finite on "
                        f"panel {p} of {P} (t = {ts[p, 0]:.6g} .. {ts[p, -1]:.6g})")
            if sample_growth:
                norms = np.linalg.norm(block, 2, axis=(1, 2))
                growth = max(growth, float(np.max(norms)))
            axis += np.tensordot(damped[:, p], block, axes=1)
        v = axis[0] @ sys.B[:, chs[0] - 1].astype(complex)
        for i in range(1, k):
            v = sys.N[chs[i] - 1] @ v
            v = axis[i] @ v
        return sys.C @ v, growth

    memo, key = sys._quadrature_growth, (float(T), panels)
    value, growth = run(panels, key not in memo)
    growth = memo.setdefault(key, growth)
    coarse, _ = run(panels // 2 if panels >= 2 else 2 * panels, False)
    disc = float(np.max(np.abs(value - coarse)))
    margins = [(z.real - abscissa, (z.real - abscissa) * T) for z in sig]
    tail = _tail_bound(sys, chs, margins, growth)
    return QuadratureEstimate(value=value, truncation=float(T), panels=panels,
                              tail_bound=float(tail),
                              discretization_estimate=disc)


def suggest_truncation(sys: BilinearSystem, channels, kind: str, s,
                       tol: float) -> float:
    """Truncation horizon whose analytic tail bound sits at or below tol.

    Bisects the same tail formula laplace_quadrature reports, with the
    transient growth constant sampled on a spectral-abscissa time scale and a
    factor-2 safety margin; the definitive bound is still the one reported by
    the quadrature run itself.
    """
    require_explicit(sys)
    if tol <= 0:
        raise ValueError("tolerance must be > 0")
    ss = _freq_tuple(s)
    chs = _channels_tuple(sys, channels, len(ss))
    sig, margin = _exponents(sys, ss, kind)
    abscissa = sys.spectral_abscissa
    horizon = 8.0 / margin
    shifted = sys.A - abscissa * np.eye(sys.n)
    growth = 2.0 * max(np.linalg.norm(expm(shifted, t), 2)
                       for t in np.linspace(0.0, horizon, 33))

    def tail_at(T: float) -> float:
        margins = [(z.real - abscissa, (z.real - abscissa) * T) for z in sig]
        return _tail_bound(sys, chs, margins, growth)

    lo, hi = 1e-3, 1e-3
    while tail_at(hi) > tol:
        hi *= 2.0
        if hi > 1e9:
            raise ValueError("tail bound cannot reach the requested tolerance")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if tail_at(mid) > tol:
            lo = mid
        else:
            hi = mid
    return hi


def _lattice(lo: float, hi: float, h: float):
    q_lo = int(math.floor(lo / h + 1e-12))
    q_hi = int(math.ceil(hi / h - 1e-12))
    if q_hi <= q_lo:
        q_hi = q_lo + 1
    return q_lo, q_hi


def _trapz_weights(count: int, h: float) -> np.ndarray:
    w = np.full(count, h)
    w[0] = w[-1] = 0.5 * h
    return w


def aux_output_2d(sys: BilinearSystem, u: SampledSignal, kind: str,
                  t1: float, t2: float, nodes: int = 201) -> float:
    """Order-2 auxiliary output by 2-D convolution of the adjusted kernel with u.

    Trapezoid rule on the intersection of the kernel support with the input
    support. Both axes share one lattice {q h}, so the kernel's discontinuity
    locus (tau_1 = tau_2 for the triangular kind, tau_1 = 0 for the regular
    kind) passes through nodes, where the boundary-adjusted 1/2 values are
    exactly the midpoint samples the trapezoid rule needs.
    """
    require_explicit(sys)
    if sys.m != 1 or sys.p != 1:
        raise ValueError("aux_output_2d is defined for SISO systems")
    if kind not in ("triangular", "regular"):
        raise ValueError(f"unknown kind {kind!r}")
    if nodes < 11:
        raise ValueError("need at least 11 quadrature nodes per axis")
    s_lo, s_hi = u.support()
    if s_hi <= s_lo:
        return 0.0

    if kind == "triangular":
        w1 = (t1 - s_hi, t1 - s_lo)
        w2 = (t2 - s_hi, t2 - s_lo)
    else:
        w2 = (t2 - s_hi, t2 - s_lo)
        w1 = (t1 + t2 - s_hi - w2[1], t1 + t2 - s_lo - w2[0])
    # Refine the signal's own grid so its kinks (and, for lattice-aligned
    # probe times, its one-sided jump loci) land on quadrature nodes.
    h_target = max(w1[1] - w1[0], w2[1] - w2[0]) / (nodes - 1)
    h = u.grid.dt / max(1, math.ceil(u.grid.dt / h_target))
    # Pad one cell past the support windows so every discontinuity locus is
    # strictly interior to the box (the padding itself integrates zeros).
    q1_lo, q1_hi = _lattice(*w1, h)
    q2_lo, q2_hi = _lattice(*w2, h)
    q1_lo, q1_hi = q1_lo - 1, q1_hi + 1
    q2_lo, q2_hi = q2_lo - 1, q2_hi + 1
    tau1 = h * np.arange(q1_lo, q1_hi + 1)
    tau2 = h * np.arange(q2_lo, q2_hi + 1)
    n1, n2 = tau1.size, tau2.size

    C_row = sys.C[0]
    b_col = sys.B[:, 0]
    Nmat = sys.N[0]
    rows = np.empty((n2, sys.n))
    for j, t in enumerate(tau2):
        rows[j] = (C_row @ expm(sys.A, t)) @ Nmat
    pos2 = tau2 > 0.0

    vals = np.zeros((n1, n2))
    if kind == "triangular":
        base = q1_lo - q2_lo
        d_max = q1_hi - q2_lo
        Ee_b = [b_col]
        for d in range(1, max(d_max, 0) + 1):
            Ee_b.append(expm(sys.A, d * h) @ b_col)
        j_idx = np.arange(n2)
        for d in range(0, d_max + 1):
            i_idx = d - base + j_idx
            ok = (i_idx >= 0) & (i_idx < n1) & pos2
            if not np.any(ok):
                continue
            dots = rows[j_idx[ok]] @ Ee_b[d]
            if d == 0:
                dots = 0.5 * dots
            vals[i_idx[ok], j_idx[ok]] = dots
    else:
        cols = np.zeros((n1, sys.n))
        for i, t in enumerate(tau1):
            if t >= 0.0:
                cols[i] = expm(sys.A, t) @ b_col
        vals = np.einsum("in,jn->ij", cols, rows)
        if q1_lo <= 0 <= q1_hi:
            vals[-q1_lo, :] *= 0.5
        vals[tau1 < 0.0, :] = 0.0
        vals[:, ~pos2] = 0.0

    # One-sided signals jump from 0 to u(0) at argument zero; when that locus
    # sits on a node the midpoint value u(0)/2 keeps the trapezoid rule clean.
    halve_at_zero = abs(u.grid.t0) <= 1e-12 and u.values[0, 0] != 0.0

    def samples(args: np.ndarray) -> np.ndarray:
        out = u.at_many(args)[:, 0]
        if halve_at_zero:
            out[np.abs(args) <= 1e-6 * h] *= 0.5
        return out

    if kind == "triangular":
        u1 = samples(t1 - tau1)
        u2 = samples(t2 - tau2)
        weights = np.outer(u1, u2)
    else:
        r = np.arange(q1_lo + q2_lo, q1_hi + q2_hi + 1)
        u_anti = samples(t1 + t2 - h * r)
        idx = np.add.outer(np.arange(n1) + q1_lo, np.arange(n2) + q2_lo) - r[0]
        u2 = samples(t2 - tau2)
        weights = u_anti[idx] * u2[None, :]

    w1v = _trapz_weights(n1, h)
    w2v = _trapz_weights(n2, h)
    return float(w1v @ (vals * weights) @ w2v)


def richardson_limit(eps_values, values) -> float:
    """Extrapolate first-order-in-eps data to eps = 0 by a linear least-squares fit."""
    es = np.atleast_1d(np.asarray(eps_values, dtype=float))
    vs = np.atleast_1d(np.asarray(values, dtype=float))
    if es.size != vs.size or es.size < 2:
        raise ValueError("need at least two (eps, value) pairs")
    slope_intercept = np.polyfit(es, vs, 1)
    return float(slope_intercept[1])


def eps_sweep(sys: BilinearSystem, mu, eps_list, probe_times) -> SweepReport:
    """Sup-norm errors of nascent_response against impulse_response per eps."""
    eps = tuple(float(e) for e in np.atleast_1d(eps_list))
    probes = tuple(float(t) for t in np.atleast_1d(probe_times))
    if not eps or not probes:
        raise ValueError("eps list and probe times must be nonempty")
    if any(e <= 0 for e in eps):
        raise ValueError("all eps must be > 0")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps list must be strictly decreasing")
    if min(probes) <= max(eps):
        raise ValueError("probe times must exceed the largest eps")
    reference = {t: impulse_response(sys, mu, t) for t in probes}
    errors = np.empty(len(eps))
    for i, e in enumerate(eps):
        errors[i] = max(
            float(np.max(np.abs(nascent_response(sys, mu, e, t) - reference[t])))
            for t in probes)
    ratios = errors[:-1] / errors[1:] if len(eps) > 1 else np.empty(0)
    order = None
    if len(eps) >= 2 and np.all(errors > 0):
        slope = np.polyfit(np.log(eps), np.log(errors), 1)[0]
        order = float(slope)
    return SweepReport(eps=eps, errors=errors, ratios=ratios, order=order)


def _symmetrised(sys: BilinearSystem, chs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """1/k! sum_pi eval_triangular(pi t, pi j) over the permutations pi of 0..k-1."""
    perms = [list(perm) for perm in itertools.permutations(range(len(ts)))]
    return sum(eval_triangular(sys, chs[perm], ts[perm])
               for perm in perms) / math.factorial(len(ts))


def symmetry_probe(sys: BilinearSystem, k: int, samples: int,
                   seed: int = 0) -> float:
    """Largest relative deviation of eval_symmetric from its definition.

    Samples random positive time tuples and channel tuples, then compares
    eval_symmetric with the symmetrisation 1/k! sum_pi eval_triangular(pi t,
    pi j) over all simultaneous permutations pi of (times, channels). For
    distinct times only one pi orders the tuple onto the simplex; the others
    are zero without an expm, so each sample costs two chain evaluations.
    """
    require_explicit(sys)
    if not 1 <= k <= 6:
        raise ValueError("symmetry probe supports 1 <= k <= 6")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        ts = rng.uniform(0.25, 3.0, size=k)
        chs = rng.integers(1, sys.m + 1, size=k)
        want = _symmetrised(sys, chs, ts)
        got = eval_symmetric(sys, chs, ts)
        scale = max(float(np.max(np.abs(want))), 1e-30)
        worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    return worst


def phi1_bounds_probe(samples: int, bounds_range=(-5.0, 5.0),
                      seed: int = 0) -> int:
    """Count violations of min(1, e^n) <= phi1(n) <= max(1, e^n) on scalar samples."""
    lo, hi = float(bounds_range[0]), float(bounds_range[1])
    if not lo < hi:
        raise ValueError("bounds_range must be an increasing pair")
    rng = np.random.default_rng(seed)
    ns = rng.uniform(lo, hi, size=int(samples))
    violations = 0
    one = np.array([1.0])
    for n in ns:
        val = float(phi1_apply(np.array([[n]]), one)[0])
        en = math.exp(n)
        lo_b, hi_b = min(1.0, en), max(1.0, en)
        tol = 1e-12 * max(1.0, hi_b)
        if val < lo_b - tol or val > hi_b + tol:
            violations += 1
    return violations
