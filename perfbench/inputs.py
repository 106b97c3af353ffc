"""Seeded inputs: systems, signals, grids, frequency and time tuples.

Every system is written in a basis drawn from the seed: A = Q A0 Q^T,
N_j = Q N0_j Q^T, B = Q B0, C = C0 Q^T, x0 = Q x00. The modal data (A0, N0,
B0, C0, x00) is fixed per state size and purpose, so the spectrum, coupling
norms and outputs do not depend on the seed while every matrix entry does.
That keeps the cost of a job and its discretisation error comparable across
seeds. The seed also draws the free parameters of signals and evaluation
points where they do not set the error the benchmark reports.
"""

from __future__ import annotations

import numpy as np

import bivolt as bv

SIZES = (4, 20, 100)
M = 2

# Real parts of the eigenvalue pairs of A0 run from -ALPHA_MIN to -alpha_max,
# so the spectral abscissa of every system is -ALPHA_MIN. Simulation systems
# are stiff enough that RK4's error on their grids is at least 1e4 times
# roundoff; frequency-domain systems are mild enough that the Laplace
# quadrature converges on a few dozen panels.
ALPHA_MIN = 0.5
STIFF = 60.0
MILD = 4.0
ABSCISSA = -ALPHA_MIN

# Purposes draw separate modal data, so a warm-up system never equals a timed one.
SIM, SPECTRAL, CLI, WARM = 1, 2, 3, 9


def make_system(n: int, seed: int, purpose: int, *, alpha_max: float,
                coupling: float, p: int = 1, with_x0: bool = False) -> bv.BilinearSystem:
    """Dense m=2 system with a fixed spectrum, written in a seed-drawn basis."""
    if n % 2:
        raise ValueError("state size must be even (A0 is built of 2x2 blocks)")
    fixed = np.random.default_rng([n, purpose, p])
    half = n // 2
    A0 = np.zeros((n, n))
    for i, (re, im) in enumerate(zip(-np.geomspace(ALPHA_MIN, alpha_max, half),
                                     np.linspace(0.25, 3.0, half))):
        A0[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[re, im], [-im, re]]
    N0 = coupling * fixed.standard_normal((M, n, n)) / np.sqrt(n)
    B0 = fixed.standard_normal((n, M)) / np.sqrt(n)
    C0 = fixed.standard_normal((p, n)) / np.sqrt(n)
    x00 = 0.1 * fixed.standard_normal(n) / np.sqrt(n) if with_x0 else np.zeros(n)
    Q, R = np.linalg.qr(np.random.default_rng([seed, n, purpose]).standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    return bv.BilinearSystem(A=Q @ A0 @ Q.T, N=Q @ N0 @ Q.T, B=Q @ B0,
                             C=C0 @ Q.T, x0=Q @ x00)


# Constant input of the step signal; the step oracle depends on it.
STEP_MU = (0.6, -0.4)


def forced_signals(grid: bv.TimeGrid, seed: int) -> dict:
    """Step, sine and sampled inputs that are nonzero on every integration step."""
    rng = np.random.default_rng([seed, 11])
    span = grid.t1 + 1.0
    knots = np.linspace(0.0, span, 41)
    return {
        "step": bv.step_signal(grid, mu=STEP_MU),
        "sine": bv.sine_signal(grid, mu=[1.0, -0.5], amplitude=1.0,
                               omega=float(rng.uniform(0.5, 3.0))),
        "sampled": bv.signal_from_samples(grid, knots,
                                          0.5 + rng.random((knots.size, M))),
    }


def frequency_point(rng, k: int) -> np.ndarray:
    """A k-tuple inside the region of convergence of every kind (Re s_i >= 0.3)."""
    return rng.uniform(0.3, 1.5, k) + 1j * rng.uniform(-4.0, 4.0, k)


def channels(rng, k: int) -> list[int]:
    return [int(j) for j in rng.integers(1, M + 1, size=k)]
