"""Every result is unchanged under a change of state basis and under padding
with states that the output never sees.

The substitution x -> T x maps (A, N_j, B, C, x0) to (T^-1 A T, T^-1 N_j T,
T^-1 B, C T, T^-1 x0), and no input-output quantity changes under it. Nor
does any change when the state is padded with a stable block that the core
and the inputs drive but that never reaches C: A, and each N_j, become block
lower-triangular. RK4 commutes with a linear change of variables, so the
engines' outputs stay the same up to rounding as well.

Neither needs an oracle, and both cross the code's internal seams. kappa_2 of
the eigenbasis of T^-1 A T moves with kappa(T), so at kappa(T) = 30 the closed
forms of a system with a normal A take the dense free flow where the system
itself takes the modal one, and so does the Laplace quadrature, whose axis
sums are formed in the eigenbasis on the system and under an orthogonal T,
and from dense exponentials at kappa(T) = 3 and 30. The core (n = 4) fills its forced stretches by
the pairwise reduction of their step maps, while the padded system (n = 96)
steps them (response._Stages); and the padded symmetric transfer function
solves its subset sums one matrix per LAPACK call, where the core stacks
those of one subset size that take one path (linalg._block). The
transfer functions of the normal core take all three resolvent paths: every
shift is certified (linalg._certified) and solved in the eigenbasis under an
orthogonal T, certified but solved by LU at kappa(T) = 3, past the
eigenbasis gate, and left to the inverse check at kappa(T) = 30, where mu2
of T^-1 A T exceeds every subset sum's real part. The transformed matrices
carry rounding of relative size about kappa(T) ulp, so the tolerance scales
with kappa(T).
"""

import dataclasses
import functools

import numpy as np
import pytest

from bivolt import (BilinearSystem, TimeGrid, eval_regular, eval_symmetric,
                    eval_tf_regular, eval_tf_symmetric, eval_tf_triangular,
                    eval_triangular, impulse_response, impulse_response_subsystem,
                    laplace_quadrature, nascent_response, ode_direct, sine_signal,
                    response, volterra_cascade)
from bivolt import linalg, verify
from bivolt.linalg import _block

from conftest import make_stable_system

# Tolerance at kappa(T) = 1. The largest deviations seen were 9.3e-15 under an
# orthogonal T and 6.4e-14 at kappa(T) = 30, both on 4-state systems, and
# 5.3e-15 for the padded system: all from the engines and the triangular TF.
RTOL = 1e-13

CORE = make_stable_system(np.random.default_rng(3), n=4, m=2, p=2, coupling=0.5)
# the core with a symmetric A, stable, and a nonzero x0: its closed forms take
# the modal free flow
_SYMMETRIC = (CORE.A + CORE.A.T) / 2
NORMAL = dataclasses.replace(
    CORE, A=_SYMMETRIC - (np.linalg.eigvalsh(_SYMMETRIC).max() + 0.5) * np.eye(4),
    x0=(0.5, -1.0, 0.25, 1.0))
CLOSED_FORMS = ("impulse", "impulse_order3", "nascent")
MU = (1.0, -0.5)
CHANNELS = (1, 2, 1)
S = (0.7 + 0.4j, 0.3 - 0.8j, 0.5 + 1.1j)
TIMES = (0.3, 1.5)
GRID = TimeGrid(0.0, 10.0, 5e-3)  # 2000 steps
SINE = sine_signal(GRID, MU, omega=2.0)

QUANTITIES = {
    "kernel_regular": lambda sys: eval_regular(sys, CHANNELS, (0.3, 0.6, 0.2)),
    "kernel_triangular": lambda sys: eval_triangular(sys, CHANNELS, (0.9, 0.5, 0.2)),
    "kernel_symmetric": lambda sys: eval_symmetric(sys, CHANNELS, (0.2, 0.9, 0.5)),
    "tf_regular": lambda sys: eval_tf_regular(sys, CHANNELS, S).value,
    "tf_triangular": lambda sys: eval_tf_triangular(sys, CHANNELS, S).value,
    "tf_symmetric": lambda sys: eval_tf_symmetric(sys, CHANNELS, S).value,
    "impulse": lambda sys: [impulse_response(sys, MU, t) for t in TIMES],
    "impulse_order3": lambda sys: [impulse_response_subsystem(sys, MU, 3, t) for t in TIMES],
    "nascent": lambda sys: [nascent_response(sys, MU, 0.05, t) for t in TIMES],
    "ode_direct": lambda sys: ode_direct(sys, SINE, GRID).values,
    "cascade": lambda sys: volterra_cascade(sys, SINE, 3, GRID).per_order,
    "quadrature": lambda sys: laplace_quadrature(sys, (1, 2), "regular", S[:2], 12.0, 8).value,
}


@functools.cache
def value(name: str, normal: bool = False) -> np.ndarray:
    return np.asarray(QUANTITIES[name](NORMAL if normal else CORE))


def basis(cond: float) -> np.ndarray:
    """A 4 x 4 matrix T with singular values from 1 down to 1 / cond."""
    rng = np.random.default_rng(5)
    U, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    V, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    return U @ np.diag(np.geomspace(1.0, 1.0 / cond, 4)) @ V.T


def transformed(sys: BilinearSystem, T: np.ndarray) -> BilinearSystem:
    Tinv = np.linalg.inv(T)
    return BilinearSystem(A=Tinv @ sys.A @ T, N=Tinv @ sys.N @ T, B=Tinv @ sys.B,
                          C=sys.C @ T, x0=Tinv @ sys.x0)


@functools.cache
def padded(size: int = 96) -> BilinearSystem:
    """CORE with size - 4 more states, stable, driven by the core's states and
    by the inputs (also through the N_j), and never seen by C."""
    rng = np.random.default_rng(7)
    n, m, extra = CORE.n, CORE.m, size - CORE.n
    A = np.zeros((size, size))
    A[:n, :n] = CORE.A
    A[n:, :n] = rng.standard_normal((extra, n))
    A[n:, n:] = 0.5 * rng.standard_normal((extra, extra)) / np.sqrt(extra) - 2.0 * np.eye(extra)
    N = np.zeros((m, size, size))
    N[:, :n, :n] = CORE.N
    N[:, n:, :] = 0.2 * rng.standard_normal((m, extra, size)) / np.sqrt(size)
    B = np.concatenate([CORE.B, rng.standard_normal((extra, m))])
    C = np.concatenate([CORE.C, np.zeros((CORE.p, extra))], axis=1)
    return BilinearSystem(A=A, N=N, B=B, C=C)


def deviation(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def stepped(monkeypatch, sys: BilinearSystem, name: str) -> int:
    """The number of steps that the engine of QUANTITIES[name] steps on sys."""
    count, step = [], response._rk4_step

    def counted(stages, Y, run, *samples):
        count.append(run.shape[1])
        step(stages, Y, run, *samples)

    monkeypatch.setattr(response, "_rk4_step", counted)
    QUANTITIES[name](sys)
    monkeypatch.undo()
    return sum(count)


def certified(monkeypatch, sys: BilinearSystem, name: str) -> np.ndarray:
    """Which shifts _certified certifies, in order, while QUANTITIES[name] runs on sys."""
    masks, certify = [], linalg._certified

    def spy(*args):
        mask = certify(*args)
        masks.append(np.atleast_1d(mask))
        return mask

    monkeypatch.setattr(linalg, "_certified", spy)
    QUANTITIES[name](sys)
    monkeypatch.undo()
    return np.concatenate(masks)


def solve_paths(monkeypatch, sys: BilinearSystem, name: str) -> set[str]:
    """The resolvent paths that the transfer function QUANTITIES[name] takes on
    sys: "modal" (linalg._modal_solve), "lu" (np.linalg.solve, which no
    transfer function calls otherwise) and "inverse" (the checked inverse)."""
    taken = set()

    def spy(path, call):
        def counted(*args):
            taken.add(path)
            return call(*args)
        return counted

    for module, attr, path in ((linalg, "_modal_solve", "modal"), (np.linalg, "solve", "lu"),
                               (linalg, "_inverses", "inverse")):
        monkeypatch.setattr(module, attr, spy(path, getattr(module, attr)))
    QUANTITIES[name](sys)
    monkeypatch.undo()
    return taken


def quadrature_paths(monkeypatch, sys: BilinearSystem) -> set[str]:
    """The paths of QUANTITIES["quadrature"]'s axis sums on sys: "modal"
    (verify._modal_sums, in the eigenbasis) or "dense" (verify._panel_sums)."""
    taken = set()
    for attr, path in (("_modal_sums", "modal"), ("_panel_sums", "dense")):
        def counted(*args, call=getattr(verify, attr), path=path):
            taken.add(path)
            return call(*args)
        monkeypatch.setattr(verify, attr, counted)
    QUANTITIES["quadrature"](sys)
    monkeypatch.undo()
    return taken


def test_cases_cross_the_seams(monkeypatch):
    assert np.allclose(basis(1.0).T @ basis(1.0), np.eye(4), atol=1e-15)
    for cond in (3.0, 30.0):
        assert np.linalg.cond(basis(cond)) == pytest.approx(cond, rel=1e-12)
    assert NORMAL._eigenbasis is not None
    assert transformed(NORMAL, basis(1.0))._eigenbasis is not None
    assert transformed(NORMAL, basis(3.0))._eigenbasis is None
    assert transformed(NORMAL, basis(30.0))._eigenbasis is None
    for name in ("ode_direct", "cascade"):
        assert stepped(monkeypatch, CORE, name) == 0
        assert stepped(monkeypatch, padded(), name) == GRID.nodes - 1
    assert _block(CORE.n) > 1 and _block(padded().n) == 1
    # the 7 subset sums of k = 3: all certified on NORMAL, the reference,
    # under an orthogonal T and at kappa(T) = 3; none at kappa(T) = 30
    paths = {}
    for cond, every, taken in ((None, True, {"modal"}), (1.0, True, {"modal"}),
                               (3.0, True, {"lu"}), (30.0, False, {"inverse"})):
        sys = NORMAL if cond is None else transformed(NORMAL, basis(cond))
        mask = certified(monkeypatch, sys, "tf_symmetric")
        assert len(mask) == 7 and (mask == every).all()
        for name in ("tf_regular", "tf_triangular", "tf_symmetric"):
            paths[cond, name] = solve_paths(monkeypatch, sys, name)
            assert paths[cond, name] == taken
    # the padded chains solve through _certified too, and fall back
    assert not certified(monkeypatch, padded(), "tf_regular").any()
    assert solve_paths(monkeypatch, padded(), "tf_regular") == {"inverse"}
    assert set().union(*paths.values()) == {"modal", "lu", "inverse"}
    # the quadrature sums its axes in the eigenbasis where the closed forms
    # and transfer functions use it, and over dense exponentials past its gate
    for cond, taken in ((None, {"modal"}), (1.0, {"modal"}), (3.0, {"dense"}),
                        (30.0, {"dense"})):
        sys = NORMAL if cond is None else transformed(NORMAL, basis(cond))
        assert quadrature_paths(monkeypatch, sys) == taken


@pytest.mark.parametrize("cond", [1.0, 30.0])
@pytest.mark.parametrize("name", QUANTITIES)
def test_change_of_basis(name, cond):
    got = QUANTITIES[name](transformed(CORE, basis(cond)))
    assert deviation(got, value(name)) <= RTOL * cond


@pytest.mark.parametrize("cond", [1.0, 30.0])
@pytest.mark.parametrize("name", [*CLOSED_FORMS, "quadrature"])
def test_change_of_basis_across_the_modal_gate(name, cond):
    got = QUANTITIES[name](transformed(NORMAL, basis(cond)))
    assert deviation(got, value(name, normal=True)) <= RTOL * cond


@pytest.mark.parametrize("cond", [1.0, 3.0, 30.0])
@pytest.mark.parametrize("name", ["tf_regular", "tf_triangular", "tf_symmetric"])
def test_change_of_basis_across_the_certificate(name, cond):
    # NORMAL solves in its eigenbasis; at kappa(T) = 3 the symmetric kind
    # takes LU and the chains the inverses, at 30 all take the inverse
    got = QUANTITIES[name](transformed(NORMAL, basis(cond)))
    assert deviation(got, value(name, normal=True)) <= RTOL * cond


@pytest.mark.parametrize("name", ["ode_direct", "cascade", "tf_regular", "tf_triangular",
                                  "tf_symmetric"])
def test_unobservable_padding(name):
    assert deviation(QUANTITIES[name](padded()), value(name)) <= RTOL
