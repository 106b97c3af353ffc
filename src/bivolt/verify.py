"""Independent numerical oracles closing the loop between time and frequency domain.

laplace_quadrature integrates kernel * exp(-sum s_i t_i) with composite
Gauss-Legendre panels and reports an analytic truncation-tail bound next to a
half-resolution discretization estimate, so agreement with the closed-form
transfer functions is a falsifiable inequality. Its axis sums are applied to
the chain's vectors inside system._chain, the product kernels and transfer
functions also form, and never formed as matrices. Where the system holds
A's eigenbasis (kappa_2(V) <= 2, the basis the closed forms and transfer
functions use), an axis sum is V diag(g) V^{-1}, with g summed from the
scalar exponentials e^{(w - alpha) t} at the nodes (alpha the spectral
abscissa). Elsewhere the node exponentials e^{(A - alpha I) t} come from
one stacked expm call over six times (the first panel's five nodes and one
panel width), which the coarse run shares when the panel count is even, and
each panel costs one product of five vectors by the panel step. On either
path the transient growth in the tail bound is sampled from the fine run's
dense exponentials, once per system and (T, panels), and kept on the
system, so a later call on a system with an eigenbasis makes no expm call.
aux_output_2d convolves the boundary-adjusted order-2 kernels with an input
signal on an aligned lattice, one body for both kinds, with stacked expm
calls of at most STACK doubles along each lattice axis; eps_sweep is a
convergence probe. symmetry_probe checks eval_symmetric against the
symmetrisation of the triangular kernel, and phi1_bounds_probe checks the
bounds of public phi1_apply on diagonal matrices of 32 samples each.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .kernels import eval_symmetric, eval_triangular
from .linalg import _affine_flow, _block, expm, phi1_apply
from .response import SampledSignal, _free_flow, _pulse_state
from .system import (BilinearSystem, _chain, _channels_tuple, effective_matrices,
                     require_explicit)
from .transfer import _freq_tuple, _kind_rules, _real_at_real_shifts

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


def _tail_bound(sys: BilinearSystem, chs, rates, growth: float):
    """Tail past T as a function of T.

    It is 2 ||C|| ||b|| prod ||N|| growth^k sum_i e^{-r_i T} / prod_i r_i; the
    factor that does not depend on T is formed once, from the 2-norms of C
    and the N_j that the system keeps.
    """
    norm_c, norms_n = sys._norms2
    scale = norm_c * np.linalg.norm(sys.B[:, chs[0] - 1])
    for j in chs[1:]:
        scale *= norms_n[j - 1]
    factor, rate_prod = 2.0 * scale * growth ** len(rates), math.prod(rates)
    return lambda T: factor * (sum(math.exp(-r * T) for r in rates) / rate_prod)


def _exponents(sys: BilinearSystem, ss: tuple[complex, ...], kind: str):
    """Laplace exponents of a regular or triangular kernel and their ROC margin."""
    if kind not in ("regular", "triangular"):
        raise ValueError(f"unknown quadrature kind {kind!r}")
    sig = _kind_rules(kind)[1](ss)
    margin = min(z.real for z in sig) - sys.spectral_abscissa
    if margin <= 0:
        raise ValueError(
            f"frequency tuple outside the region of convergence (margin {margin:.3e})")
    return sig, margin


def _overflow(what: str, p: int, ts: np.ndarray) -> FloatingPointError:
    return FloatingPointError(
        f"quadrature overflow: {what} is not finite on panel {p} of {len(ts)} "
        f"(t = {ts[p, 0]:.6g} .. {ts[p, -1]:.6g})")


def _sampled_growth(first: np.ndarray, step: np.ndarray, ts: np.ndarray) -> float:
    """max(1, ||e^{(A - alpha I) t}||_2) over a run's nodes ts, one (P, 5) row per panel.

    Panel p's exponentials are step times panel p - 1's, starting from first;
    raises FloatingPointError naming the first panel where they are not finite.
    Each 2-norm is the root of the largest eigenvalue of E^T E, with E first
    divided by the power of two just above its largest entry, so that E^T E
    cannot overflow; that scaling is exact.
    """
    block, growth = first, 1.0
    for p in range(len(ts)):
        if p:
            with np.errstate(over="ignore", invalid="ignore"):
                block = step @ block
            if not np.isfinite(block).all():
                raise _overflow("e^((A - alpha I) t)", p, ts)
        exps = np.frexp(np.max(np.abs(block), axis=(1, 2)))[1]
        scaled = np.ldexp(block, -exps[:, None, None])
        tops = np.linalg.eigvalsh(np.swapaxes(scaled, 1, 2) @ scaled)[:, -1]
        growth = max(growth, float(np.max(np.ldexp(np.sqrt(tops), exps))))
    return growth


def _panel_sums(first: np.ndarray, step: np.ndarray, ts: np.ndarray,
                damped: np.ndarray, twice: bool = False):
    """system._chain's factor for one run: sum_pj damped[i, p, j] e^{(A - alpha I) t_pj} v.

    Panel 0's five vectors are first[j] v and each later panel's are the ones
    before times step, so a run costs k P products of five vectors by an n x n
    matrix and forms no n x n product. With twice, first[j] and step apply
    twice each, which gives the run whose nodes and width are twice those of
    the run that formed them. Real and imaginary parts are stepped as separate
    real rows. Raises FloatingPointError naming the first panel whose vectors
    are not finite; the caller ignores numpy's overflow warnings.
    """
    P, reps = len(ts), 2 if twice else 1
    first_t, step_t = np.swapaxes(first, 1, 2), step.T

    def factor(i, v):
        rows = np.stack([v.real, v.imag]) if np.iscomplexobj(v) else v[None]
        c, n = rows.shape
        Ys = np.empty((P, 5 * c, n))
        Y = rows
        for _ in range(reps):
            Y = Y @ first_t
        Ys[0] = Y.reshape(5 * c, n)
        for p in range(1, P):
            Y = Ys[p - 1]
            for _ in range(reps):
                Y = Y @ step_t
            Ys[p] = Y
        finite = np.isfinite(Ys).all(axis=(1, 2))
        if not finite.all():
            raise _overflow("e^((A - alpha I) t) v", int(np.argmin(finite)), ts)
        # Five-node sums per panel, added panel after panel: one product over
        # all 5P terms rounded up to ten times worse where the integral is far
        # smaller than its terms.
        Ys, weights = Ys.reshape(P, 5, c * n), damped[i][:, None, :]
        out = ((weights.real @ Ys).sum(axis=0)
               + 1j * (weights.imag @ Ys).sum(axis=0)).reshape(c, n)
        return out[0] + 1j * out[1] if c == 2 else out[0]

    return factor


def _modal_sums(basis, shift: float, ts: np.ndarray, damped: np.ndarray):
    """_panel_sums' factor in A's eigenbasis: X_i v = V (g_i * (V^{-1} v)).

    With A = V diag(w) V^{-1}, e^{(A - shift I) t} = V diag(e^{(w - shift) t})
    V^{-1}, so the axis sum X_i is V diag(g_i) V^{-1} with g_i = sum_pj
    damped[i, p, j] e^{(w - shift) t_pj}. One (n, 5P) table of scalar
    exponentials and the (k, 5P) weights give every g_i, summed as
    _panel_sums sums: five nodes per panel, then panel after panel. It forms
    no n x n matrix; the caller ignores numpy's overflow warnings.
    """
    exps = np.exp(np.multiply.outer(basis.w - shift, ts))
    gains = (np.swapaxes(exps, 0, 1) @ np.moveaxis(damped, 0, 2)).sum(axis=0)
    return lambda i, v: basis.V @ (gains[:, i] * (basis.Vinv @ v))


def laplace_quadrature(sys: BilinearSystem, channels, kind: str, s,
                       T: float, panels: int) -> QuadratureEstimate:
    """Numerically Laplace-transform an order-k kernel over a truncated domain.

    Regular kernels are integrated over the box [0, T]^k. Triangular kernels
    are integrated after the cumulative-sum change of variables, i.e. over the
    box in difference coordinates with exponents at the partial sums
    s_1 + ... + s_i, which covers the ordered simplex of diameter T. The
    integrand factorizes along axes, so each axis is one composite 5-point
    Gauss-Legendre sum over matrix exponentials, applied to the chain's vector.

    With alpha the spectral abscissa of A, each factor e^{At} e^{-z t} is
    formed as e^{(A - alpha I) t} e^{-(z - alpha) t}, so it overflows neither
    for an unstable A inside the region of convergence nor for a strongly
    stable A on a long horizon. The coarse run (panels // 2, or 2 for one
    panel) gives the discretization estimate. Either run takes one of two
    paths:
    - Where the system holds A's eigenbasis, A = V diag(w) V^{-1}, the axis
      sum is X_i v = V (g_i * (V^{-1} v)), with g_i the weighted sum of the
      scalar exponentials e^{(w - alpha) t} at the run's nodes; it forms no
      n x n matrix. At real frequencies the value is returned exactly real,
      as the dense path returns it.
    - Elsewhere panel p's exponentials are e^{(A - alpha I) h}, h = T /
      panels, times panel p - 1's. A run makes one expm call over six times
      (the first panel's five nodes and the step) and applies the
      exponentials to the chain's vectors panel by panel; it raises
      FloatingPointError naming the panel where a vector is not finite. For
      an even panel count the coarse run's nodes and step are twice the fine
      run's, so it applies the fine exponentials twice and makes no expm
      call of its own.
    Neither returns a non-finite value: a chain product that is not finite
    raises FloatingPointError. The growth max ||e^{(A - alpha I) t}||_2 of
    the tail bound depends on A, T and panels only, and is the same on both
    paths. It is sampled from the dense exponentials at every node of the
    fine run, stepped panel by panel, once per system and (T, panels), and
    stored on the system when the fine run ends without an error; a later
    call forms no n x n panel product, and in the eigenbasis no exponential
    matrix at all.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"truncation horizon T must be finite and > 0, got {T!r}")
    if not (float(panels).is_integer() and panels >= 1):
        raise ValueError(f"panels must be an integer >= 1, got {panels!r}")
    panels = int(panels)
    ss = _freq_tuple(s)
    k = len(ss)
    if k > 3:
        raise ValueError(f"laplace_quadrature supports kernel orders k <= 3, got k = {k}")
    chs = _channels_tuple(sys, channels, k)
    sig, _ = _exponents(sys, ss, kind)
    abscissa = sys.spectral_abscissa
    shifted = sys.A - abscissa * np.eye(sys.n)
    rates = np.array(sig) - abscissa
    basis = sys._eigenbasis

    def nodes(P: int):
        ts, wts = _gl_points(T, P)
        return ts.reshape(P, 5), wts.reshape(P, 5)

    def exponentials(P: int):
        exps = expm(shifted, np.append(nodes(P)[0][0], T / P))
        return exps[:5], exps[5]

    def run(P: int, first=None, step=None, twice: bool = False):
        ts, wts = nodes(P)
        damped = wts * np.exp(-np.multiply.outer(rates, ts))
        with np.errstate(over="ignore", invalid="ignore"):
            out = _chain(sys, chs, _panel_sums(first, step, ts, damped, twice)
                         if basis is None else _modal_sums(basis, abscissa, ts, damped))
        if not np.isfinite(out).all():
            raise FloatingPointError("quadrature overflow: the chain product is not finite")
        return out if basis is None else _real_at_real_shifts(out, sig)

    memo, key = sys._quadrature_growth, (float(T), panels)
    growth = memo.get(key)
    # in the eigenbasis the fine run's exponentials only sample the growth
    fine = exponentials(panels) if growth is None or basis is None else ()
    if growth is None:
        growth = _sampled_growth(*fine, nodes(panels)[0])
    value = run(panels, *fine)
    memo[key] = growth
    half = panels // 2 or 2
    if basis is not None:
        coarse = run(half)
    elif panels % 2:
        coarse = run(half, *exponentials(half))
    else:
        coarse = run(half, *fine, twice=True)
    disc = float(np.max(np.abs(value - coarse)))
    tail = _tail_bound(sys, chs, rates.real, growth)(T)
    return QuadratureEstimate(value=value, truncation=float(T), panels=panels,
                              tail_bound=float(tail),
                              discretization_estimate=disc)


def suggest_truncation(sys: BilinearSystem, channels, kind: str, s,
                       tol: float) -> float:
    """Truncation horizon whose analytic tail bound sits at or below tol.

    Bisects the same tail formula laplace_quadrature reports, with the
    transient growth constant sampled at 33 times on a spectral-abscissa time
    scale, by one stacked expm, and a factor-2 safety margin; the definitive
    bound is still the one reported by the quadrature run itself.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol!r}")
    ss = _freq_tuple(s)
    chs = _channels_tuple(sys, channels, len(ss))
    sig, margin = _exponents(sys, ss, kind)
    abscissa = sys.spectral_abscissa
    horizon = 8.0 / margin
    shifted = sys.A - abscissa * np.eye(sys.n)
    samples = expm(shifted, np.linspace(0.0, horizon, 33))
    growth = 2.0 * np.linalg.norm(samples, 2, axis=(1, 2)).max()
    tail = _tail_bound(sys, chs, [z.real - abscissa for z in sig], growth)
    lo, hi = 1e-3, 1e-3
    while tail(hi) > tol:
        hi *= 2.0
        if hi > 1e9:
            raise ValueError("tail bound cannot reach the requested tolerance")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if tail(mid) > tol:
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
    support. The regular kernel at (tau_1, tau_2) is the triangular one at
    (tau_1 + tau_2, tau_2), so the kinds differ only in the first exponent
    slot (tau_1 - tau_2 for the triangular kind, tau_1 for the regular one)
    and in the first input argument (t_1 - tau_1, or t_1 + t_2 - tau_1 -
    tau_2). Both axes share one lattice {q h}, so the kernel's discontinuity
    locus, where the first slot is zero, passes through nodes, where the
    boundary-adjusted 1/2 values are exactly the midpoint samples the
    trapezoid rule needs.
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

    # reg = 1 adds tau_2 to the first input argument and drops it from the
    # first exponent slot.
    reg = int(kind == "regular")
    t_first = t1 + reg * t2
    w2 = (t2 - s_hi, t2 - s_lo)
    w1 = (t_first - s_hi - reg * w2[1], t_first - s_lo - reg * w2[0])
    # Refine the signal's own grid so its kinks (and, for lattice-aligned
    # probe times, its one-sided jump loci) land on quadrature nodes.
    h_target = max(w1[1] - w1[0], w2[1] - w2[0]) / (nodes - 1)
    h = u.grid.dt / max(1, math.ceil(u.grid.dt / h_target))
    # Pad one cell past the support windows so every discontinuity locus is
    # strictly interior to the box (the padding itself integrates zeros).
    q1_lo, q1_hi = _lattice(*w1, h)
    q2_lo, q2_hi = _lattice(*w2, h)
    q1 = np.arange(q1_lo - 1, q1_hi + 2)
    q2 = np.arange(q2_lo - 1, q2_hi + 2)
    tau2 = h * q2
    # Lattice indices of the first exponent slot and of the first input argument.
    slot = np.subtract.outer(q1, (1 - reg) * q2)
    arg = np.add.outer(q1, reg * q2)

    # The exponentials come in stacks of at most STACK doubles; rows are formed
    # as (1, n) products, since one (q, n) @ (n, n) product rounds differently.
    per = _block(sys.n)
    rows = np.concatenate([((sys.C[0] @ expm(sys.A, t))[:, None, :] @ sys.N[0])[:, 0]
                           for t in np.split(tau2, range(per, tau2.size, per))])
    lags = np.arange(max(slot.min(), 0), max(slot.max(), 0) + 1)
    cols = np.concatenate([expm(sys.A, t) @ sys.B[:, 0]
                           for t in np.split(lags * h, range(per, lags.size, per))])
    vals = (cols @ rows.T)[np.clip(slot - lags[0], 0, None), np.arange(q2.size)]
    # The face rule: zero outside the domain, half where the first slot is zero.
    vals[(slot < 0) | (tau2 <= 0.0)] = 0.0
    vals[slot == 0] *= 0.5

    # One-sided signals jump from 0 to u(0) at argument zero; when that locus
    # sits on a node the midpoint value u(0)/2 keeps the trapezoid rule clean.
    halve_at_zero = abs(u.grid.t0) <= 1e-12 and u.values[0, 0] != 0.0

    def samples(args: np.ndarray) -> np.ndarray:
        out = u.at_many(args)[:, 0]
        if halve_at_zero:
            out[np.abs(args) <= 1e-6 * h] *= 0.5
        return out

    r = np.arange(arg.min(), arg.max() + 1)
    weights = samples(t_first - h * r)[arg - r[0]] * samples(t2 - tau2)
    return float(_trapz_weights(q1.size, h) @ (vals * weights) @ _trapz_weights(q2.size, h))


def richardson_limit(eps_values, values) -> float:
    """Extrapolate first-order-in-eps data to eps = 0 by a linear least-squares fit."""
    es = np.atleast_1d(np.asarray(eps_values, dtype=float))
    vs = np.atleast_1d(np.asarray(values, dtype=float))
    if es.size != vs.size or es.size < 2:
        raise ValueError("need at least two (eps, value) pairs")
    slope_intercept = np.polyfit(es, vs, 1)
    return float(slope_intercept[1])


def eps_sweep(sys: BilinearSystem, mu, eps_list, probe_times) -> SweepReport:
    """Sup-norm errors of nascent_response against impulse_response per eps.

    Each state is formed once: the impulse's, and each pulse's once per eps,
    and the probe times share them, so each value equals its separate call.
    A sweep whose errors are identically zero, with no ratios, is refused.
    """
    eps = tuple(float(e) for e in np.atleast_1d(eps_list))
    probes = tuple(float(t) for t in np.atleast_1d(probe_times))
    if not eps or not probes:
        raise ValueError("eps list and probe times must be nonempty")
    if not all(map(math.isfinite, eps + probes)):
        raise ValueError("eps and probe times must be finite")
    if any(e <= 0 for e in eps):
        raise ValueError("all eps must be > 0")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps list must be strictly decreasing")
    if min(probes) <= max(eps):
        raise ValueError("probe times must exceed the largest eps")
    eff = effective_matrices(sys, mu)
    driven = eff.bhat.any() or sys.x0.any() and eff.Nhat.any()
    if not (driven and sys.A.any() and sys.C.any()):
        raise ValueError("the nascent response is identically zero or equals the impulse "
                         "response (C = 0, A = 0, or B mu = 0 with x0 = 0 or N mu = 0): "
                         "no error ratio exists")
    impulse = _affine_flow(eff.Nhat, eff.bhat, sys.x0)
    reference = [_free_flow(sys, t, impulse) for t in probes]
    errors = np.empty(len(eps))
    for i, e in enumerate(eps):
        pulse = _pulse_state(sys, eff, e, e)
        errors[i] = max(float(np.max(np.abs(_free_flow(sys, t - e, pulse) - ref)))
                        for t, ref in zip(probes, reference))
    ratios = errors[:-1] / errors[1:] if len(eps) > 1 else np.empty(0)
    order = None
    if len(eps) >= 2 and (errors > 0).all():
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
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    ns = rng.uniform(lo, hi, size=int(samples))
    # phi1(n) of 32 samples at a time, the diagonal of phi1 of their diagonal
    # matrix: of 8 to 64 per block, 32 took least at 1e4 samples over (-5, 5),
    # (-50, 50) and (-700, 700), 47-57 ms (one BLAS thread, 2-vCPU x86_64).
    vals = np.concatenate([phi1_apply(np.diag(part), np.ones(part.size))
                           for part in np.split(ns, range(32, ns.size, 32))])
    violations = 0
    for n, val in zip(ns, vals):
        en = math.exp(n)
        lo_b, hi_b = min(1.0, en), max(1.0, en)
        tol = 1e-12 * max(1.0, hi_b)
        if val < lo_b - tol or val > hi_b + tol:
            violations += 1
    return violations
