import numpy as np
import pytest

from bivolt import BilinearSystem


@pytest.fixture
def scalar_system():
    # a=-1, n=0.5, b=c=1, x0=0
    return BilinearSystem(A=[[-1.0]], N=[[[0.5]]], B=[[1.0]], C=[[1.0]])


@pytest.fixture
def gain2_system():
    # a=-1, n=2, b=c=1
    return BilinearSystem(A=[[-1.0]], N=[[[2.0]]], B=[[1.0]], C=[[1.0]])


def make_stable_system(rng, n=4, m=1, p=1, coupling=0.4, with_x0=False):
    """Random system with spectral abscissa of A at most -0.5."""
    A = rng.standard_normal((n, n))
    shift = float(np.max(np.linalg.eigvals(A).real)) + 0.5 + rng.uniform(0.0, 1.0)
    A = A - shift * np.eye(n)
    N = coupling * rng.standard_normal((m, n, n)) / np.sqrt(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    x0 = rng.standard_normal(n) if with_x0 else None
    return BilinearSystem(A=A, N=N, B=B, C=C, x0=x0)


def normal_system(n, m=1, p=1, seed=0):
    """System with a normal A = Q D Q^T, Q orthogonal, D of 2 x 2 blocks.

    Block i has the eigenvalues -0.5 - i/8 +- (0.25 + i/16) i, all dyadic, so
    mu2(A) is the spectral abscissa, -0.5, up to rounding. An odd n adds the
    real eigenvalue -0.5 - (n // 2)/8 last.
    """
    D = np.zeros((n, n))
    for i in range(n // 2):
        a, w = -0.5 - i / 8, 0.25 + i / 16
        D[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[a, w], [-w, a]]
    if n % 2:
        D[-1, -1] = -0.5 - (n // 2) / 8
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    N = 0.4 * rng.standard_normal((m, n, n)) / np.sqrt(n)
    return BilinearSystem(A=Q @ D @ Q.T, N=Q @ N @ Q.T, B=rng.standard_normal((n, m)),
                          C=rng.standard_normal((p, n)))


def transient_growth_system(m=1):
    """Non-normal 2-state system: ||e^{At}||_2 e^{t} rises from 1 towards 40.

    m = 2 adds a second input channel; A, and so the growth, is the same.
    """
    N = [[[0.3, -0.2], [0.1, 0.4]], [[0.0, 0.5], [-0.3, 0.2]]][:m]
    B = np.array([[1.0, 0.5], [1.0, -1.0]])[:, :m]
    return BilinearSystem(A=[[-1.0, 20.0], [0.0, -1.5]], N=N, B=B,
                          C=[[1.0, 0.0], [0.5, -1.0]])


def overflowing_chain(n=30, a=3.2e10):
    """A, B, C of a nilpotent Jordan chain whose e^{At} passes the largest double.

    The corner entry of e^{At} is (a t)^(n-1) / (n-1)!, past 1.8e308 from
    t = 15.54 on; every node exponential up to t = 15.5 is finite.
    """
    A = np.diag(np.full(n - 1, a), 1)
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    C = np.zeros((1, n))
    C[0, 0] = 1.0
    return A, B, C
