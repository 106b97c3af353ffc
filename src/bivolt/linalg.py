"""Dense linear-algebra kernels: matrix exponential, phi1 application, resolvent solves.

Everything operates on plain numpy arrays (row-major, float64/complex128).
The matrix exponential is scaling-and-squaring with a degree-13 Pade
approximant; it raises FloatingPointError instead of returning inf or NaN.
It takes one matrix at one time, or stacks: a stack of matrices (..., n, n),
an array of times, or both, broadcast against each other. A stack gets a
squaring count per matrix from its own 1-norm, one stacked Pade evaluation
and solve per block of at most STACK doubles (a block holds one matrix from
n = 91), and squarings of only the entries that still need them, so each
entry is bit-identical to the exponential of its matrix and time alone.
The affine flow e^M x0 + phi1(M) b, for one matrix M, is a Taylor series
on vectors: ceil(||M||_1) substeps, each of degree m <= 18 chosen so
that the truncation stays below 2^-53, m products of [M/s, b/s] by a vector.
Where that costs more, it is one exponential of [[M, b/beta], [0, 0]]
applied to [x0; beta], with beta a power of two that keeps b from raising
the squaring count. phi1_apply is that flow from x0 = 0. Linear solves
factorise once with LAPACK and refuse a matrix whose condition number
reaches 1/PIVOT_RTOL, so a frequency on the spectrum or a singular E is
reported instead of surfacing as garbage downstream.
Every resolvent solve, public resolvent_apply's and the transfer
functions', goes through one path, _solver: over a sequence of shifts, it
solves one position (along a chain) on its (n, r) vectors, or a stack of
them (one per shift, in blocks of the same size), by the same code in one
of three ways. A shift whose matrix the
logarithmic-norm bound proves well conditioned (_certified, from mu2(A) and
||A||_inf) is solved in A's eigenbasis where the system holds one
(_modal_solve: x = V ((V^{-1} v) / (s - w)) and one step of iterative
refinement), else by LU; every other shift takes the checked inverse, which
is all that resolvent_apply, with no certificate, takes. The shifts refused
and the first of them are the same on all three.
"""

from __future__ import annotations

import bisect
import cmath
import math

import numpy as np

__all__ = [
    "PoleHitError",
    "SingularMatrixError",
    "expm",
    "phi1_apply",
    "resolvent_apply",
    "solve",
]

# Degree-13 Pade coefficients and the largest 1-norm for which the unscaled
# approximant stays at machine accuracy.
_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152

# solve refuses a matrix whose condition number reaches 1/PIVOT_RTOL.
PIVOT_RTOL = 1e-12

# _certified certifies a shift s where its bound on cond_inf(s I - A) stays
# below _CERTIFIED / PIVOT_RTOL: half the refusal threshold (see there).
_CERTIFIED = 0.5
_EPS = float(np.finfo(float).eps)

# Doubles in one stacked array. expm and the resolvent solves (_solver) work
# on a stack in blocks of at most STACK doubles per array (_block), so that a
# block's temporaries stay in cache: from n = 91 a block is one matrix, taken
# by the same stacked code, since 32 Pade approximants in one block took 1.7x
# as long per matrix at n = 100 (one BLAS thread), while at n = 4 to 20 larger
# blocks are faster. response bounds its stacks of step maps by it, and
# aux_output_2d its stacks of exponentials.
STACK = 2 ** 14


def _block(n: int) -> int:
    """Number of n x n matrices in one block of at most STACK doubles, at least one."""
    return max(1, STACK // max(n * n, 1))


class SingularMatrixError(ValueError):
    """A solve met a matrix that is singular to working precision.

    ``index`` is the position of the first such matrix in a stack.
    """

    index = 0


class PoleHitError(ValueError):
    """A resolvent solve hit (numerically) an eigenvalue of the system matrix.

    Carries the offending frequency in ``s``.
    """

    def __init__(self, s: complex):
        super().__init__(f"resolvent pole hit: s = {s} lies on the spectrum")
        self.s = s


def _square_array(M, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """M as a float or complex square matrix, or with stack a stack (..., n, n) of them."""
    A = np.asarray(M)
    if A.ndim < 2 or (A.ndim > 2 and not stack) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if A.size and not np.isfinite(A).all():
        raise ValueError(f"{name} has non-finite entries")
    if A.dtype.kind != "c":
        A = A.astype(float, copy=False)  # no caller writes into it
    return A


def _pade13(A: np.ndarray):
    b = _PADE13_B
    ident = np.eye(A.shape[-1], dtype=A.dtype)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    return U, V


def _squarings(nrm) -> int:
    """Number of squarings that scales a 1-norm nrm down to at most _THETA13."""
    return int(math.ceil(math.log2(nrm / _THETA13))) if nrm > _THETA13 else 0


def _overflow(what: str, t=None, index=None) -> FloatingPointError:
    """expm's overflow error, naming the time t and the flat stack index where given."""
    where = " ".join(([] if t is None else [f"t = {t!r}"])
                     + ([] if index is None else [f"at stack index {index}"]))
    return FloatingPointError(f"expm overflow: {what}" + (f" ({where})" if where else ""))


def expm(M, t=1.0) -> np.ndarray:
    """Evaluate e^{M t} by scaling-and-squaring with the degree-13 Pade approximant.

    M is one matrix or a stack (..., n, n) and t one time or an array of
    times; the stack shapes M.shape[:-2] and t.shape broadcast, and the
    result has the broadcast shape followed by (n, n). Each matrix M t gets
    its own squaring count from its own 1-norm, so entry i of a stack is
    bit-identical to the call on its matrix and time alone. Returns the
    identity exactly where M t = 0. Raises FloatingPointError, naming the
    time (and for a stack its flat index), when M t or the result overflows.
    """
    A = _square_array(M, "expm argument", stack=True)
    if A.ndim > 2 or not np.isscalar(t):
        return _expm_stack(A, np.asarray(t))
    if not cmath.isfinite(t):
        raise ValueError("expm time must be finite")
    return _expm_one(A, t)


def _expm_one(M: np.ndarray, t) -> np.ndarray:
    """e^{M t} for one matrix."""
    with np.errstate(over="ignore", invalid="ignore"):
        A = M * t
        nrm = np.linalg.norm(A, 1) if A.size else 0.0
    if not math.isfinite(nrm):
        raise _overflow("||M t||_1 is not finite", t)
    if nrm == 0.0:
        return np.eye(A.shape[0], dtype=A.dtype)
    squarings = _squarings(nrm)
    if squarings:
        A = A / (2.0 ** squarings)
    U, V = _pade13(A)
    R = np.linalg.solve(V - U, V + U)
    if squarings:  # without squaring, ||M t||_1 <= _THETA13 keeps R finite
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(squarings):
                R = R @ R
        if not np.isfinite(R).all():
            raise _overflow(f"e^(M t) with ||M t||_1 = {nrm:.3e} is not finite "
                            f"after {squarings} squarings", t)
    return R


def _expm_stack(M: np.ndarray, t: np.ndarray) -> np.ndarray:
    """expm over the broadcast stack of M (..., n, n) and times t.

    The Pade approximants of a block are formed together, each with its own
    scaling, and only the entries that still need a squaring are squared.
    Where one matrix fills a block (n >= 91), a block is that one matrix.
    """
    if not np.isfinite(t).all():
        raise ValueError("expm time must be finite")
    n = M.shape[-1]
    shape = np.broadcast_shapes(M.shape[:-2], t.shape)
    R = np.empty(shape + (n, n), dtype=np.result_type(M, t))
    if not R.size:
        return R
    block = _block(n)
    with np.errstate(over="ignore", invalid="ignore"):
        A = (M * t[..., None, None]).reshape(-1, n, n)
        nrm = np.linalg.norm(A, 1, axis=(1, 2))
    times = np.broadcast_to(t, shape).ravel()
    finite = np.isfinite(nrm)
    if not finite.all():
        i = int(np.argmin(finite))
        raise _overflow("||M t||_1 is not finite", times[i].item(), i)
    s = np.zeros(len(A), dtype=int)
    for i in np.flatnonzero(nrm > _THETA13):
        s[i] = _squarings(nrm[i])
    out = R.reshape(-1, n, n)
    for i in range(0, len(A), block):
        part = slice(i, i + block)
        U, V = _pade13(A[part] / (2.0 ** s[part])[:, None, None])
        out[part] = _square(np.linalg.solve(V - U, V + U), s[part])
    out[nrm == 0.0] = np.eye(n)
    if s.any():
        finite = np.isfinite(out).all(axis=(1, 2))
        if not finite.all():
            i = int(np.argmin(finite))
            raise _overflow(f"e^(M t) with ||M t||_1 = {nrm[i]:.3e} is not finite "
                            f"after {s[i]} squarings", times[i].item(), i)
    return R


def _square(R: np.ndarray, s: np.ndarray) -> np.ndarray:
    """R[i] squared s[i] times, for a stack R (q, n, n): only the entries that still need it."""
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(1, int(s.max()) + 1):
            todo = s >= level
            if todo.all():
                R = R @ R
            else:
                R[todo] = R[todo] @ R[todo]
    return R


# Largest 1-norm a at which the Taylor series of e^A truncated after A^m,
# m = 0..18, is exact to rounding: for a <= 1 its tail, and phi1(A)'s, is at
# most a^(m+1) e / (m+1)!, and here that bound is 2^-53.
_TAYLOR_THETA = tuple((2.0 ** -53 * math.factorial(m + 1) / math.e) ** (1 / (m + 1))
                      for m in range(19))

# Cost of an affine flow, in multiply-adds of a matrix-vector product, with
# _CALL for each numpy call: the Taylor path takes s m products of n^2 and
# three calls each; the dense path about _DENSE (n + 1)^3 and 60 calls. Fitted
# to both paths' times at n = 1 to 100 on one BLAS thread, where a Taylor
# product took about 2.5 us + 0.19 ns n^2 and the dense path 40 us + 0.8 ns
# (n + 1)^3: they broke even at s m = 18, 26, 70 and 230-260 for n = 8, 20, 50
# and 100, and the model puts that at 20, 24, 67 and 260.
_CALL, _DENSE = 3500, 5


def _taylor_plan(nrm: float, n: int):
    """(s, m) for the Taylor path of a flow of an n x n matrix of finite
    1-norm nrm: s substeps of degree m. None where the dense path costs less."""
    s = max(math.ceil(nrm), 1)
    m = bisect.bisect_left(_TAYLOR_THETA, nrm / s)
    if s * m * (n * n + 3 * _CALL) < _DENSE * (n + 1) ** 3 + 60 * _CALL:
        return s, m
    return None


def _affine_flow(M: np.ndarray, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """e^M x0 + phi1(M) b for one M (n, n) and b, x0 (n,), valid for singular M.

    The flow takes the cheaper of two paths by its 1-norm and n (_taylor_plan):
    - a Taylor series on vectors: s = ceil(||M||_1) substeps x <- e^(M/s) x
      + phi1(M/s) b/s, each sum_k (M/s)^k (x/k! + b/(s (k+1)!)) over k <= m
      by Horner's rule, m products of [M/s, b/s] by [z; 1];
    - one exponential of [[M, b/beta], [0, 0]] applied to [x0; beta], where
      beta, a power of two, brings ||b/beta||_inf to at most ||M||_1 when
      ||b||_inf exceeds it (else beta = 1), so that b adds no squarings.
    Raises expm's FloatingPointError where ||M||_1 or the flow is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = float(np.abs(M).sum(axis=0).max(initial=0.0))
        if not nrm < math.inf:
            raise _overflow("||M||_1 is not finite")
        plan = _taylor_plan(nrm, len(b))
        out = _taylor(M, b, x0, *plan) if plan else _dense(M, b, x0, nrm)
    if not np.isfinite(out).all():
        raise _overflow("e^M x0 + phi1(M) b is not finite")
    return out


def _taylor(M: np.ndarray, b: np.ndarray, x: np.ndarray, s: int, m: int) -> np.ndarray:
    """e^M x + phi1(M) b in s substeps of degree m; overflow is left to the caller's check."""
    n = len(b)
    W = np.empty((n, n + 1), dtype=np.result_type(M, b, x, float))
    W[:, :n], W[:, n] = (M, b) if s == 1 else (M / s, b / s)
    c = W[:, n]
    z1 = np.ones(n + 1, dtype=W.dtype)  # [z; 1]
    z, y = z1[:n], np.empty(n, dtype=W.dtype)
    for _ in range(s):
        np.add(x, c / (m + 1), out=z)
        for k in map(float, range(m, 0, -1)):
            np.matmul(W, z1, out=y)
            y /= k
            np.add(x, y, out=z)
        x = z.copy()
    return x


def _dense(M: np.ndarray, b: np.ndarray, x: np.ndarray, nrm: float) -> np.ndarray:
    """e^M x + phi1(M) b, for M of 1-norm nrm, by one exponential of the
    balanced augmented matrix."""
    n = len(b)
    big = np.abs(b).max(initial=0.0)
    beta = np.exp2(min(np.ceil(np.log2(big / nrm)), 1023.0)) if big > nrm else 1.0
    W = np.zeros((n + 1, n + 1), dtype=np.result_type(M, b, float))
    W[:-1, :-1], W[:-1, -1] = M, b / beta
    xt = np.empty(n + 1, dtype=np.result_type(x, float))
    xt[:-1], xt[-1] = x, beta
    return (expm(W) @ xt)[:-1]


def phi1_apply(M, v) -> np.ndarray:
    """Apply phi1(M) = sum_{k>=1} M^{k-1}/k! to a vector: the affine flow from 0."""
    A = _square_array(M, "phi1 argument")
    vec = np.asarray(v)
    if vec.shape != (A.shape[0],):
        raise ValueError(
            f"phi1 vector has shape {vec.shape}; expected ({A.shape[0]},)")
    return _affine_flow(A, vec, np.zeros(A.shape[0]))


def _inverses(K: np.ndarray) -> np.ndarray:
    """Inverse of one matrix K (n, n), or of each in a stack (q, n, n), by one
    LAPACK call, each checked as solve checks K.

    Raises SingularMatrixError whose ``index`` is the first refused matrix.
    """
    try:
        inverse = np.linalg.inv(K)
    except np.linalg.LinAlgError as exc:
        # numpy refuses the whole stack; find the first matrix refused alone.
        for i in range(len(K) if K.ndim == 3 and len(K) > 1 else 0):
            try:
                _inverses(K[i])
            except SingularMatrixError as err:
                err.index = i
                raise
        raise SingularMatrixError("singular: exact zero pivot") from exc
    # ||.||_inf of each matrix, as np.linalg.norm forms it. The ufuncs' own
    # reductions, which .sum, .max and .all call, cost half as much on small K.
    cond = (np.maximum.reduce(np.add.reduce(np.abs(K), -1), -1)
            * np.maximum.reduce(np.add.reduce(np.abs(inverse), -1), -1))
    accepted = cond < 1.0 / PIVOT_RTOL
    if not np.logical_and.reduce(accepted, axis=None):
        i = int(np.argmin(accepted))
        err = SingularMatrixError(
            f"singular: condition number {np.ravel(cond)[i]:.3e} reaches {1.0 / PIVOT_RTOL:.0e}")
        err.index = i
        raise err
    return inverse


def solve(K, B) -> np.ndarray:
    """Solve K X = B for one or many right-hand sides.

    K is factorised once by LAPACK (``inv``). It counts as singular when LAPACK
    meets an exact zero pivot or when ||K||_inf ||K^{-1}||_inf reaches
    1/PIVOT_RTOL. This catches every K whose LU factorisation with partial
    pivoting has a pivot |u_jj| <= PIVOT_RTOL ||K||_inf: the x with x_j = 1,
    x_i = 0 for i > j and U x = u_jj e_j has ||K x||_inf <= |u_jj|, since the
    multipliers are at most 1 in size, so ||K^{-1}||_inf >= 1/|u_jj|.
    """
    return _inverses(_square_array(K, "solve argument")) @ np.asarray(B)


def _logarithmic_norm(A) -> tuple[float, float]:
    """(mu2(A), ||A||_inf), the two numbers _certified needs.

    mu2(A) is the largest eigenvalue of the Hermitian part (A + A^H) / 2, the
    logarithmic 2-norm of A, from one eigvalsh. A is refused as
    resolvent_apply refuses it.
    """
    M = _square_array(A, "resolvent matrix")
    return (float(np.linalg.eigvalsh((M + M.conj().T) / 2).max(initial=-math.inf)),
            float(np.abs(M).sum(axis=1).max(initial=0.0)))


def _certified(shifts: np.ndarray, n: int, bound: tuple[float, float]) -> np.ndarray:
    """Mask of the shifts s whose s I - A is proven to pass solve's check, from
    bound = (mu2, ||A||_inf) of the n x n matrix A (_logarithmic_norm).

    For a unit vector x, Re x^H (s I - A) x = Re s - Re x^H A x >= Re s - mu2,
    so where Re s > mu2, ||(s I - A)^{-1}||_2 <= 1 / (Re s - mu2) (Soderlind
    2006, "The logarithmic norm. History and modern theory", BIT 46). With
    ||R||_inf <= sqrt(n) ||R||_2 for R = (s I - A)^{-1} and ||s I - A||_inf
    <= |s| + ||A||_inf, cond_inf(s I - A) <= (|s| + ||A||_inf) sqrt(n) /
    (Re s - mu2). A shift is certified where that bound is below _CERTIFIED /
    PIVOT_RTOL, with two margins for rounding:
    - eigvalsh returns mu2 to within p(n) eps ||H||_2 (backward stability and
      Weyl's inequality for the symmetric H), and ||H||_2 <= ||A||_2 <=
      sqrt(n) ||A||_inf; mu2 is raised by 4 n sqrt(n) eps ||A||_inf.
    - Half the refusal threshold covers the inverse check's own rounding.
      There Re s - mu2 exceeds 9e3 eps (|s| + ||A||_inf), which bounds the
      2-norm of the rounding of the formed s I - A, and a computed inverse is
      off by about n eps cond <= 1.1e-2 relative at n = 100 under LU's usual
      small growth, so solve's estimate ||K||_inf ||inv(K)||_inf, for the
      formed K = s I - A, cannot double to reach 1/PIVOT_RTOL.
    So every certified shift passes the inverse check: the shifts refused,
    and the first of them, do not depend on which are certified.
    """
    mu2, norm = bound
    root = math.sqrt(n)
    gap = shifts.real - (mu2 + 4.0 * n * root * _EPS * norm)
    return (np.abs(shifts) + norm) * root < gap * (_CERTIFIED / PIVOT_RTOL)


def resolvent_apply(A, s, V) -> np.ndarray:
    """Solve (s I - A) X = V; raises :class:`PoleHitError` when s sits on the spectrum.

    s is one shift, with V of shape (n,) or (n, r), or a 1-D array of q
    shifts, with V stacked as (q, n) or (q, n, r): then X[i] solves
    (s_i I - A) X[i] = V[i]. This is _solver with no certificate, so every
    shift takes the checked inverse, formed and applied in blocks of at most
    STACK doubles, and a long array of shifts never holds all its inverses
    at once; PoleHitError carries the first refused shift.
    """
    ss = np.asarray(s, dtype=complex)
    return _solver(A, ss)(slice(None) if ss.ndim else 0, V)


def _solver(A, shifts, bound: tuple[float, float] | None = None, basis=None):
    """The function solve(i, V) -> (s_i I - A)^{-1} V over a sequence of
    shifts: every resolvent solve goes through it.

    i is a position, with V of shape (n,) or (n, r), or an index array or a
    slice, with V stacked as (q, n) or (q, n, r). bound is the system's
    _logarithmic_norm(A), which has already refused a non-finite A, so A is
    checked here only where bound is None (resolvent_apply); the shifts are
    checked, and certified (_certified; bound None certifies none), once for
    the sequence: at n = 4 that takes about 6 us, half as long as a modal
    position (one BLAS thread). A shift is solved in one of three ways:
    - certified, where basis, the system's record of w, V and V^{-1} with
      A = V diag(w) V^{-1}, is given: in the eigenbasis (_modal_solve), one
      call for all such shifts of a call;
    - certified, with no basis: by LU, one stacked solve per block;
    - any other: by the checked inverse, one stacked inverse per block,
      which raises PoleHitError with the first refused shift.
    A certified shift passes the inverse check, so the shifts refused, and
    the first of them, are the same whichever are certified. A position is
    solved on its (n, r) vectors by the same code as a stack, whose products
    are the same BLAS calls, one per entry, so it is bit-identical to its
    entry in a stack. At n = 100 an LU solve took 0.19 ms where the checked
    inverse took 0.77.
    """
    if bound is None:
        A = _square_array(A, "resolvent matrix")
    ss = np.array(shifts, dtype=complex, ndmin=1)
    if ss.ndim > 1:
        raise ValueError(f"shifts must be one value or a 1-D array, got shape {ss.shape}")
    if not all(map(cmath.isfinite, ss.tolist())):
        raise ValueError("resolvent shift has non-finite components")
    n = len(A)
    sure = np.zeros(len(ss), dtype=bool) if bound is None else _certified(ss, n, bound)
    flags = sure.tolist()

    def solve(i, V) -> np.ndarray:
        X = np.asarray(V, dtype=complex)
        if isinstance(i, (int, np.integer)):
            if X.ndim not in (1, 2) or len(X) != n:
                raise ValueError(f"V has shape {X.shape}; expected ({n},) or ({n}, r) "
                                 "for one shift")
            return _one_path(A, ss[i], X.reshape(n, -1), flags[i], basis).reshape(X.shape)
        s, certified = ss[i], sure[i]
        if X.ndim not in (2, 3) or X.shape[:2] != (len(s), n):
            raise ValueError(f"V must be a stack ({len(s)}, {n}) or ({len(s)}, {n}, r) "
                             f"for {len(s)} shifts, got shape {X.shape}")
        Y = X[:, :, None] if X.ndim == 2 else X
        s = s[:, None, None]
        count = int(np.count_nonzero(certified))
        if not 0 < count < len(s):
            return _one_path(A, s, Y, count > 0, basis).reshape(X.shape)
        # the certified shifts first: only the others can be refused
        out = np.empty(Y.shape, dtype=complex)
        for flag, take in ((True, certified), (False, ~certified)):
            out[take] = _one_path(A, s[take], Y[take], flag, basis)
        return out.reshape(X.shape)

    return solve


def _one_path(A: np.ndarray, s, Y: np.ndarray, certified: bool, basis) -> np.ndarray:
    """(s I - A)^{-1} Y for one shift s and Y (n, r), or (s_i I - A)^{-1} Y[i]
    for shifts s (q, 1, 1) and a stack Y (q, n, r), where every shift takes
    one of _solver's paths: certified, in the eigenbasis where basis is given
    (one call for the stack), else by LU; not certified, by the checked
    inverse. LU and the inverse go one stacked LAPACK call per block.
    """
    if certified and basis is not None:
        return _modal_solve(A, Y, s, basis)
    n = len(A)
    if Y.ndim == 3 and len(Y) > (step := _block(n)):
        out = np.empty(Y.shape, dtype=complex)
        for j in range(0, len(Y), step):
            out[j:j + step] = _one_path(A, s[j:j + step], Y[j:j + step], certified, basis)
        return out
    K = s * np.eye(n) - A
    if certified:
        return np.linalg.solve(K, Y)
    try:
        return _inverses(K) @ Y
    except SingularMatrixError as exc:
        raise PoleHitError(complex(np.ravel(s)[exc.index])) from exc


def _modal_solve(A: np.ndarray, Y: np.ndarray, s, basis) -> np.ndarray:
    """(s I - A)^{-1} Y in A's eigenbasis, for one shift s and Y (n, r), or
    for shifts s (q, 1, 1) and a stack Y (q, n, r).

    x = V ((V^{-1} v) / (s - w)), then one step of fixed-precision iterative
    refinement, x += V ((V^{-1} r) / (s - w)) with r = v - (s x - A x). The
    refinement makes the solve as accurate as LU (Higham 1997, "Iterative
    refinement for linear systems and LAPACK", IMA J. Numer. Anal. 17(4)):
    on perfbench's spectral systems at n = 4, 20 and 100 the worst error of a
    triangular chain (k = 3) against a 30-digit one was 2.7e-15 to 8.8e-15
    without it, 5.5e-16 to 7.6e-16 with it, and 8.4e-16 to 1.5e-15 by LU.
    Only for shifts that _certified certifies: there Re s exceeds
    mu2(A) >= Re w, so no s - w is zero, and no refusal is due.
    """
    gaps = s - basis.w[:, None]
    x = basis.V @ ((basis.Vinv @ Y) / gaps)
    # A x as one real product of the system's real A with [Re x, Im x]
    r = Y - (s * x - (A @ x.view(float)).view(complex))
    return x + basis.V @ ((basis.Vinv @ r) / gaps)
