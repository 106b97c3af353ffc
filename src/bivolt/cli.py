"""Command-line front end: JSON system/signal ingestion, CSV emission.

Exit codes: 0 success, 2 parse/validation problems (with the violation list on
stderr), 1 numerical failures such as pole hits, too-coarse grids or
non-finite results.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys as _sys

import numpy as np

from .kernels import (classify_regular, classify_triangular, eval_regular,
                      eval_symmetric, eval_triangular, DEFAULT_TIE_TOL)
from .linalg import PoleHitError
from .response import (GridResolutionError, TimeGrid, delta_eps_signal,
                       impulse_response, impulse_response_subsystem, ode_direct,
                       signal_from_samples, sine_signal, step_signal,
                       volterra_cascade, zero_signal)
from .system import BilinearSystem, fold_implicit, validate
from .transfer import _evaluator, roc_margin
from .verify import (aux_output_2d, eps_sweep, laplace_quadrature,
                     phi1_bounds_probe, richardson_limit, symmetry_probe)

__all__ = ["run_command", "main", "system_from_document", "system_to_document",
           "signal_from_spec"]

_KINDS = {"tri": "triangular", "triangular": "triangular",
          "reg": "regular", "regular": "regular",
          "sym": "symmetric", "symmetric": "symmetric"}


def system_from_document(doc: dict) -> BilinearSystem:
    """Build a system from the JSON document schema; raises ValueError naming bad keys."""
    problems: list[str] = []

    def dim(key):
        try:
            value = int(doc[key])
            if value < 1:
                problems.append(f"{key} must be >= 1")
            return value
        except KeyError:
            problems.append(f"missing key {key!r}")
        except (TypeError, ValueError):
            problems.append(f"{key} must be an integer")
        return 1

    n, m, p = dim("n"), dim("m"), dim("p")

    def block(key, shape, required=True):
        if key not in doc:
            if required:
                problems.append(f"missing key {key!r}")
            return None
        try:
            return np.asarray(doc[key], dtype=float).reshape(shape)
        except (TypeError, ValueError):
            problems.append(f"{key} does not hold {shape} reals (row-major)")
            return None

    A = block("A", (n, n))
    N = block("N", (m, n, n))
    B = block("B", (n, m))
    C = block("C", (p, n))
    x0 = block("x0", (n,), required=False)
    E = block("E", (n, n), required=False)
    if problems:
        raise ValueError("; ".join(problems))
    return BilinearSystem(A=A, N=N, B=B, C=C, x0=x0, E=E)


def system_to_document(sys: BilinearSystem) -> dict:
    """Emit the JSON document for a system (flat row-major float lists)."""
    doc = {
        "n": sys.n, "m": sys.m, "p": sys.p,
        "A": [float(v) for v in sys.A.ravel()],
        "N": [[float(v) for v in sys.N[j].ravel()] for j in range(sys.m)],
        "B": [float(v) for v in sys.B.ravel()],
        "C": [float(v) for v in sys.C.ravel()],
        "x0": [float(v) for v in sys.x0],
    }
    if sys.E is not None:
        doc["E"] = [float(v) for v in sys.E.ravel()]
    return doc


def signal_from_spec(spec: dict, grid: TimeGrid, m: int):
    """Build the input signal described by a SignalSpec document on a grid."""
    kind = spec.get("kind")
    mu = np.atleast_1d(np.asarray(spec.get("mu", np.ones(m)), dtype=float))
    if kind != "samples" and mu.shape != (m,):
        raise ValueError(f"signal mu has shape {mu.shape}; expected ({m},)")
    if kind == "delta_eps":
        if "eps" not in spec:
            raise ValueError("delta_eps signal needs key 'eps'")
        return delta_eps_signal(grid, float(spec["eps"]), mu)
    if kind == "step":
        return step_signal(grid, mu, amplitude=float(spec.get("amplitude", 1.0)))
    if kind == "sine":
        return sine_signal(grid, mu, amplitude=float(spec.get("amplitude", 1.0)),
                           omega=float(spec.get("frequency", 1.0)))
    if kind == "zero":
        return zero_signal(grid, m)
    if kind == "samples":
        if "t" not in spec or "u" not in spec:
            raise ValueError("samples signal needs keys 't' and 'u'")
        sig = signal_from_samples(grid, spec["t"], spec["u"])
        if sig.m != m:
            raise ValueError(f"sample signal has {sig.m} channels; expected {m}")
        return sig
    raise ValueError(f"unknown signal kind {kind!r}")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _load_system(path: str) -> BilinearSystem:
    sys_ = system_from_document(_load_json(path))
    violations = validate(sys_)
    if violations:
        raise ValueError("; ".join(violations))
    return fold_implicit(sys_)


def _fmt(column: str, value) -> str:
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise FloatingPointError(f"non-finite value {value} in column {column}")
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _emit_csv(out, header, rows) -> None:
    """Write a CSV of results; raises FloatingPointError before writing a NaN or inf."""
    cells = [[_fmt(name, v) for name, v in zip(header, row, strict=True)] for row in rows]

    def write(handle):
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(cells)

    if out:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            write(fh)
    else:
        write(_sys.stdout)


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _channels(args, k: int) -> list[int]:
    """--channels as 1-based channel numbers, else channel 1 for all k arguments."""
    return _ints(args.channels) if args.channels else [1] * k


def _complexes(text: str) -> list[complex]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(complex(tok.replace("i", "j")))
        except ValueError as exc:
            raise ValueError(f"cannot parse complex number {tok!r} "
                             "(expected a+bi / a-bi)") from exc
    return out


def _grid(text: str) -> TimeGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be t0:t1:dt")
    return TimeGrid(float(parts[0]), float(parts[1]), float(parts[2]))


def _kind(text: str) -> str:
    try:
        return _KINDS[text]
    except KeyError:
        raise ValueError(f"unknown kind {text!r} (use tri|reg|sym)") from None


def _cmd_validate(args) -> int:
    sys_ = system_from_document(_load_json(args.system))
    violations = validate(sys_)
    if violations:
        for v in violations:
            print(v, file=_sys.stderr)
        return 2
    folded = fold_implicit(sys_)
    print(f"ok: n={folded.n} m={folded.m} p={folded.p}"
          + (" (E folded)" if sys_.E is not None else ""))
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            json.dump(system_to_document(sys_), fh)
            fh.write("\n")
    return 0


def _cmd_simulate(args) -> int:
    sys_ = _load_system(args.system)
    grid = _grid(args.grid)
    signal = signal_from_spec(_load_json(args.signal), grid, sys_.m)
    header: list = ["t"]
    columns: list[np.ndarray] = [grid.times()]
    if args.method in ("direct", "both"):
        direct = ode_direct(sys_, signal, grid)
        for i in range(sys_.p):
            header.append(f"y{i + 1}")
            columns.append(direct.values[:, i])
    if args.method in ("cascade", "both"):
        if args.orders is None:
            raise ValueError("--orders is required for the cascade method")
        series = volterra_cascade(sys_, signal, args.orders, grid)
        for k in range(series.per_order.shape[0]):
            for i in range(sys_.p):
                name = f"y_k{k + 1}" + (f"_{i + 1}" if sys_.p > 1 else "")
                header.append(name)
                columns.append(series.per_order[k, :, i])
        total = series.total
        for i in range(sys_.p):
            header.append("total" + (f"_{i + 1}" if sys_.p > 1 else ""))
            columns.append(total[:, i])
    _emit_csv(args.out, header, zip(*columns))
    return 0


def _cmd_impulse(args) -> int:
    sys_ = _load_system(args.system)
    mu = _floats(args.mu)
    times = _floats(args.times)
    header = ["t"] + [f"g{i + 1}" for i in range(sys_.p)]
    for k in range(1, args.orders + 1):
        header += [f"g_k{k}" + (f"_{i + 1}" if sys_.p > 1 else "")
                   for i in range(sys_.p)]
    rows = []
    for t in times:
        row: list = [t]
        row += list(impulse_response(sys_, mu, t))
        for k in range(1, args.orders + 1):
            row += list(impulse_response_subsystem(sys_, mu, k, t))
        rows.append(row)
    _emit_csv(args.out, header, rows)
    return 0


def _cmd_kernel(args) -> int:
    sys_ = _load_system(args.system)
    kind = _kind(args.kind)
    times = _floats(args.t)
    channels = _channels(args, len(times))
    evaluate, classify = {"triangular": (eval_triangular, classify_triangular),
                          "regular": (eval_regular, classify_regular),
                          "symmetric": (eval_symmetric, None)}[kind]
    value = evaluate(sys_, channels, times, tol=args.tol)
    note = ("symmetric", "", "")
    if classify is not None:
        region = classify(times, tol=args.tol)
        note = (region.kind, region.n, region.factor)
    header = ([f"t{i + 1}" for i in range(len(times))]
              + [f"y{i + 1}" for i in range(sys_.p)]
              + ["region", "n", "factor"])
    _emit_csv(args.out, header, [list(times) + list(value) + list(note)])
    return 0


def _cmd_tf(args) -> int:
    sys_ = _load_system(args.system)
    kind = _kind(args.kind)
    s = _complexes(args.s)
    channels = _channels(args, len(s))
    tv = _evaluator(kind)(sys_, channels, s)
    margin = roc_margin(sys_, s, kind)
    header, row = [], []
    for i, z in enumerate(s):
        header += [f"s{i + 1}_re", f"s{i + 1}_im"]
        row += [z.real, z.imag]
    for i in range(sys_.p):
        header += [f"G{i + 1}_re", f"G{i + 1}_im"]
        row += [tv.value[i].real, tv.value[i].imag]
    header.append("roc_margin")
    row.append(margin)
    _emit_csv(args.out, header, [row])
    return 0


def _cmd_verify_laplace(args) -> int:
    sys_ = _load_system(args.system)
    kind = _kind(args.kind)
    s = _complexes(args.s)
    channels = _channels(args, len(s))
    est = laplace_quadrature(sys_, channels, kind, s, args.T, args.panels)
    closed = _evaluator(kind)(sys_, channels, s).value
    diff = float(np.max(np.abs(est.value - closed)))
    bound = est.tail_bound + est.discretization_estimate
    header, row = [], []
    for i in range(sys_.p):
        header += [f"quad{i + 1}_re", f"quad{i + 1}_im",
                   f"closed{i + 1}_re", f"closed{i + 1}_im"]
        row += [est.value[i].real, est.value[i].imag,
                closed[i].real, closed[i].imag]
    header += ["tail_bound", "discretization_estimate", "abs_diff", "within_bound"]
    row += [est.tail_bound, est.discretization_estimate, diff, int(diff <= bound)]
    _emit_csv(args.out, header, [row])
    return 0 if diff <= bound else 1


def _cmd_verify_eps_sweep(args) -> int:
    sys_ = _load_system(args.system)
    report = eps_sweep(sys_, _floats(args.mu), _floats(args.eps), _floats(args.times))
    rows = []
    for i, e in enumerate(report.eps):
        ratio = report.ratios[i - 1] if i >= 1 else ""
        order = report.order if report.order is not None else ""
        rows.append([e, report.errors[i], ratio, order])
    _emit_csv(args.out, ["eps", "error", "ratio", "fitted_order"], rows)
    return 0


def _cmd_verify_symmetry(args) -> int:
    sys_ = _load_system(args.system)
    dev = symmetry_probe(sys_, args.k, args.samples, seed=args.seed)
    _emit_csv(args.out, ["k", "samples", "seed", "max_relative_deviation"],
              [[args.k, args.samples, args.seed, dev]])
    return 0


def _cmd_verify_bounds(args) -> int:
    lo, hi = _floats(args.range)
    violations = phi1_bounds_probe(args.samples, (lo, hi), seed=args.seed)
    _emit_csv(args.out, ["samples", "lo", "hi", "seed", "violations"],
              [[args.samples, lo, hi, args.seed, violations]])
    return 0 if violations == 0 else 1


def _cmd_verify_aux2d(args) -> int:
    sys_ = _load_system(args.system)
    kind = _kind(args.kind)
    if kind == "symmetric":
        raise ValueError("aux2d supports tri|reg kinds")
    eps_list = _floats(args.eps)
    rows = []
    values = []
    for eps in eps_list:
        grid = TimeGrid(0.0, 2.0 * eps, eps / args.pulse_div)
        pulse = delta_eps_signal(grid, eps)
        val = aux_output_2d(sys_, pulse, kind, args.t1, args.t2, nodes=args.nodes)
        values.append(val)
        rows.append([eps, val])
    if len(values) >= 2:
        rows.append([0.0, richardson_limit(eps_list, values)])
    _emit_csv(args.out, ["eps", "value"], rows)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bivolt",
        description="Bilinear dynamical systems via the Volterra series")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a system document")
    p.add_argument("--system", required=True)
    p.add_argument("--emit", help="write the normalized document here")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("simulate", help="integrate the system for a signal")
    p.add_argument("--system", required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--grid", required=True, help="t0:t1:dt")
    p.add_argument("--method", choices=["direct", "cascade", "both"],
                   default="direct")
    p.add_argument("--orders", type=int, help="cascade truncation order K")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("impulse", help="closed-form impulse response")
    p.add_argument("--system", required=True)
    p.add_argument("--mu", required=True, help="comma-separated impulse weights")
    p.add_argument("--times", required=True, help="comma-separated times > 0")
    p.add_argument("--orders", type=int, default=6,
                   help="number of per-subsystem columns")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_impulse)

    p = sub.add_parser("kernel", help="evaluate an adjusted Volterra kernel")
    p.add_argument("--system", required=True)
    p.add_argument("--kind", required=True, help="tri|reg|sym")
    p.add_argument("--channels", help="comma-separated 1-based channels")
    p.add_argument("--t", required=True, help="comma-separated times")
    p.add_argument("--tol", type=float, default=DEFAULT_TIE_TOL)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("tf", help="evaluate a multidimensional transfer function")
    p.add_argument("--system", required=True)
    p.add_argument("--kind", required=True, help="tri|reg|sym")
    p.add_argument("--channels", help="comma-separated 1-based channels")
    p.add_argument("--s", required=True, help='complex list, e.g. "1+2i,3-0.5i"')
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tf)

    v = sub.add_parser("verify", help="numerical cross-check harnesses")
    vsub = v.add_subparsers(dest="check", required=True)

    p = vsub.add_parser("laplace", help="quadrature vs closed-form transform")
    p.add_argument("--system", required=True)
    p.add_argument("--kind", required=True, help="tri|reg")
    p.add_argument("--channels")
    p.add_argument("--s", required=True)
    p.add_argument("--T", type=float, default=30.0)
    p.add_argument("--panels", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_laplace)

    p = vsub.add_parser("eps-sweep", help="nascent-delta convergence sweep")
    p.add_argument("--system", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--eps", required=True, help="strictly decreasing list")
    p.add_argument("--times", required=True, help="probe times")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_eps_sweep)

    p = vsub.add_parser("symmetry", help="symmetric-kernel permutation probe")
    p.add_argument("--system", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_symmetry)

    p = vsub.add_parser("bounds", help="phi1 scalar plausibility bounds probe")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--range", default="-5,5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_bounds)

    p = vsub.add_parser("aux2d", help="order-2 auxiliary output delta-pulse limit")
    p.add_argument("--system", required=True)
    p.add_argument("--kind", required=True, help="tri|reg")
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--t2", type=float, required=True)
    p.add_argument("--eps", required=True, help="pulse widths, e.g. 1e-2,5e-3")
    p.add_argument("--nodes", type=int, default=201)
    p.add_argument("--pulse-div", dest="pulse_div", type=int, default=20)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_aux2d)

    return parser


def run_command(argv) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PoleHitError, GridResolutionError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run_command(_sys.argv[1:]))
