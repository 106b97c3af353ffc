"""Command-line front end: JSON system/signal ingestion, CSV emission.

Exit codes: 0 success, 2 parse/validation problems (with the violation list on
stderr), 1 numerical failures such as pole hits, too-coarse grids or
non-finite results.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .transfer import _kind_rules, roc_margin
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

    def number(key, default=None) -> float:
        if default is None and key not in spec:
            raise ValueError(f"{kind} signal needs key {key!r}")
        try:
            return float(spec.get(key, default))
        except (TypeError, ValueError):
            raise ValueError(f"signal key {key!r} must be a real number") from None

    def reals(key, default=None) -> np.ndarray:
        try:
            return np.asarray(spec.get(key, default), dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"signal key {key!r} must hold real numbers") from None

    mu = np.atleast_1d(reals("mu", np.ones(m)))
    if kind != "samples" and mu.shape != (m,):
        raise ValueError(f"signal mu has shape {mu.shape}; expected ({m},)")
    if kind == "delta_eps":
        return delta_eps_signal(grid, number("eps"), mu)
    if kind == "step":
        return step_signal(grid, mu, amplitude=number("amplitude", 1.0))
    if kind == "sine":
        return sine_signal(grid, mu, amplitude=number("amplitude", 1.0),
                           omega=number("frequency", 1.0))
    if kind == "zero":
        return zero_signal(grid, m)
    if kind == "samples":
        if "t" not in spec or "u" not in spec:
            raise ValueError("samples signal needs keys 't' and 'u'")
        sig = signal_from_samples(grid, reals("t"), reals("u"))
        if sig.m != m:
            raise ValueError(f"sample signal has {sig.m} channels; expected {m}")
        return sig
    raise ValueError(f"unknown signal kind {kind!r}")


def _load_json(path: str) -> dict:
    """Read a system or signal document; its top level must be a JSON object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return doc


def _fmt(column: str, value) -> str:
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise FloatingPointError(f"non-finite value {value} in column {column}")
        return repr(float(value))
    return str(value)


def _open_out(path: str, newline=None):
    """Open an output file; a path that cannot be opened is a usage error."""
    try:
        return open(path, "w", newline=newline, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit_csv(out, header, rows) -> None:
    """Write a CSV of results; raises FloatingPointError before writing a NaN or inf."""
    cells = [[_fmt(name, v) for name, v in zip(header, row, strict=True)] for row in rows]
    # stdout is looked up per call: an in-process caller may have redirected it
    with (_open_out(out, newline="") if out
          else contextlib.nullcontext(_sys.stdout)) as handle:
        csv.writer(handle).writerows([header, *cells])


def _list_of(parse, empty_ok: bool = False):
    """argparse type= converter for a comma-separated list; empty items are skipped.

    A list with no items left is refused unless empty_ok.
    """
    def convert(text: str) -> list:
        try:
            items = [parse(tok.strip()) for tok in text.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not items and not empty_ok:
            raise argparse.ArgumentTypeError(f"empty list {text!r}")
        return items
    return convert


def _int_at_least(lo: int):
    """argparse type= converter for an integer >= lo."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    return convert


def _complex(tok: str) -> complex:
    try:
        return complex(tok.replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex number {tok!r} "
                         "(expected a+bi / a-bi)") from None


_floats = _list_of(float)
_ints = _list_of(int, empty_ok=True)  # --channels: empty means the default
_complexes = _list_of(_complex)


def _grid(text: str) -> TimeGrid:
    parts = text.split(":")
    try:
        if len(parts) != 3:
            raise ValueError("grid must be t0:t1:dt")
        return TimeGrid(float(parts[0]), float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _kind(text: str) -> str:
    if text not in _KINDS:
        raise argparse.ArgumentTypeError(f"unknown kind {text!r} (use tri|reg|sym)")
    return _KINDS[text]


def _per_output(name: str, p: int) -> list[str]:
    """Column names of a quantity with one value per output: name, or name_1..name_p."""
    return [name + (f"_{i + 1}" if p > 1 else "") for i in range(p)]


def _complex_cells(cells: dict, name: str, z: complex) -> None:
    cells[f"{name}_re"], cells[f"{name}_im"] = z.real, z.imag


def _cmd_validate(raw, folded, args) -> int:
    """Emit a document that passed validation, as read, when asked; then report it."""
    if args.emit:
        with _open_out(args.emit) as fh:
            json.dump(system_to_document(raw), fh)
            fh.write("\n")
    print(f"ok: n={folded.n} m={folded.m} p={folded.p}"
          + (" (E folded)" if raw.E is not None else ""))
    return 0


# The other commands take the folded system and the parsed arguments and return
# (header, rows) or (header, rows, exit code); run_command writes the CSV.

def _cmd_simulate(sys_, args):
    signal = signal_from_spec(_load_json(args.signal), args.grid, sys_.m)
    header: list = ["t"]
    columns: list[np.ndarray] = [args.grid.times()]
    if args.method in ("direct", "both"):
        direct = ode_direct(sys_, signal, args.grid)
        header += [f"y{i + 1}" for i in range(sys_.p)]
        columns += list(direct.values.T)
    if args.method in ("cascade", "both"):
        if args.orders is None:
            raise ValueError("--orders is required for the cascade method")
        series = volterra_cascade(sys_, signal, args.orders, args.grid)
        for k in range(series.per_order.shape[0]):
            header += _per_output(f"y_k{k + 1}", sys_.p)
            columns += list(series.per_order[k].T)
        header += _per_output("total", sys_.p)
        columns += list(series.total.T)
    return header, zip(*columns)


def _cmd_impulse(sys_, args):
    header = ["t"] + [f"g{i + 1}" for i in range(sys_.p)]
    for k in range(1, args.orders + 1):
        header += _per_output(f"g_k{k}", sys_.p)
    rows = []
    for t in args.times:
        row = [t, *impulse_response(sys_, args.mu, t)]
        for k in range(1, args.orders + 1):
            row += list(impulse_response_subsystem(sys_, args.mu, k, t))
        rows.append(row)
    return header, rows


def _cmd_kernel(sys_, args):
    evaluate, classify = {"triangular": (eval_triangular, classify_triangular),
                          "regular": (eval_regular, classify_regular),
                          "symmetric": (eval_symmetric, None)}[args.kind]
    value = evaluate(sys_, args.channels, args.t, tol=args.tol)
    note = ("symmetric", "", "")
    if classify is not None:
        region = classify(args.t, tol=args.tol)
        note = (region.kind, region.n, region.factor)
    header = ([f"t{i + 1}" for i in range(len(args.t))]
              + [f"y{i + 1}" for i in range(sys_.p)]
              + ["region", "n", "factor"])
    return header, [list(args.t) + list(value) + list(note)]


def _cmd_tf(sys_, args):
    tv = _kind_rules(args.kind)[0](sys_, args.channels, args.s)
    cells: dict = {}
    for i, z in enumerate(args.s):
        _complex_cells(cells, f"s{i + 1}", z)
    for i, g in enumerate(tv.value):
        _complex_cells(cells, f"G{i + 1}", g)
    cells["roc_margin"] = roc_margin(sys_, args.s, args.kind)
    return list(cells), [list(cells.values())]


def _cmd_verify_laplace(sys_, args):
    est = laplace_quadrature(sys_, args.channels, args.kind, args.s, args.T, args.panels)
    closed = _kind_rules(args.kind)[0](sys_, args.channels, args.s).value
    diff = float(np.max(np.abs(est.value - closed)))
    bound = est.tail_bound + est.discretization_estimate
    cells: dict = {}
    for i in range(sys_.p):
        _complex_cells(cells, f"quad{i + 1}", est.value[i])
        _complex_cells(cells, f"closed{i + 1}", closed[i])
    cells.update(tail_bound=est.tail_bound,
                 discretization_estimate=est.discretization_estimate,
                 abs_diff=diff, within_bound=int(diff <= bound))
    return list(cells), [list(cells.values())], 0 if diff <= bound else 1


def _cmd_verify_eps_sweep(sys_, args):
    report = eps_sweep(sys_, args.mu, args.eps, args.times)
    ratios = [""] + list(report.ratios)
    order = report.order if report.order is not None else ""
    rows = [[e, err, ratio, order]
            for e, err, ratio in zip(report.eps, report.errors, ratios)]
    return ["eps", "error", "ratio", "fitted_order"], rows


def _cmd_verify_symmetry(sys_, args):
    dev = symmetry_probe(sys_, args.k, args.samples, seed=args.seed)
    return (["k", "samples", "seed", "max_relative_deviation"],
            [[args.k, args.samples, args.seed, dev]])


def _cmd_verify_bounds(_, args):
    lo, hi = args.range
    violations = phi1_bounds_probe(args.samples, (lo, hi), seed=args.seed)
    return (["samples", "lo", "hi", "seed", "violations"],
            [[args.samples, lo, hi, args.seed, violations]],
            0 if violations == 0 else 1)


def _cmd_verify_aux2d(sys_, args):
    rows = []
    for eps in args.eps:
        grid = TimeGrid(0.0, 2.0 * eps, eps / args.pulse_div)
        pulse = delta_eps_signal(grid, eps)
        rows.append([eps, aux_output_2d(sys_, pulse, args.kind, args.t1, args.t2,
                                        nodes=args.nodes)])
    if len(rows) >= 2:
        rows.append([0.0, richardson_limit(args.eps, [val for _, val in rows])])
    return ["eps", "value"], rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bivolt",
        description="Bilinear dynamical systems via the Volterra series")
    sub = parser.add_subparsers(dest="command", required=True)

    # Options that several commands share, each declared once in a parent parser.
    system, out, channels, any_kind, quad_kind = (
        argparse.ArgumentParser(add_help=False) for _ in range(5))
    system.add_argument("--system", required=True)
    out.add_argument("--out")
    channels.add_argument("--channels", type=_ints, help="comma-separated 1-based channels")
    any_kind.add_argument("--kind", type=_kind, required=True, help="tri|reg|sym")
    quad_kind.add_argument("--kind", type=_kind, choices=("triangular", "regular"),
                           required=True, help="tri|reg")

    def command(group, name, func, help, *parents):
        p = group.add_parser(name, help=help, parents=[system, out, *parents])
        p.set_defaults(func=func)
        return p

    p = sub.add_parser("validate", help="check a system document", parents=[system])
    p.add_argument("--emit", help="write the normalized document here")

    p = command(sub, "simulate", _cmd_simulate, "integrate the system for a signal")
    p.add_argument("--signal", required=True)
    p.add_argument("--grid", type=_grid, required=True, help="t0:t1:dt")
    p.add_argument("--method", choices=["direct", "cascade", "both"],
                   default="direct")
    p.add_argument("--orders", type=int, help="cascade truncation order K")

    p = command(sub, "impulse", _cmd_impulse, "closed-form impulse response")
    p.add_argument("--mu", type=_floats, required=True,
                   help="comma-separated impulse weights")
    p.add_argument("--times", type=_floats, required=True,
                   help="comma-separated times > 0")
    p.add_argument("--orders", type=_int_at_least(0), default=6,
                   help="number of per-subsystem columns")

    p = command(sub, "kernel", _cmd_kernel, "evaluate an adjusted Volterra kernel",
                any_kind, channels)
    p.add_argument("--t", type=_floats, required=True, help="comma-separated times")
    p.add_argument("--tol", type=float, default=DEFAULT_TIE_TOL)

    p = command(sub, "tf", _cmd_tf, "evaluate a multidimensional transfer function",
                any_kind, channels)
    p.add_argument("--s", type=_complexes, required=True,
                   help='complex list, e.g. "1+2i,3-0.5i"')

    v = sub.add_parser("verify", help="numerical cross-check harnesses")
    vsub = v.add_subparsers(dest="check", required=True)

    p = command(vsub, "laplace", _cmd_verify_laplace, "quadrature vs closed-form transform",
                quad_kind, channels)
    p.add_argument("--s", type=_complexes, required=True)
    p.add_argument("--T", type=float, default=30.0)
    p.add_argument("--panels", type=int, default=200)

    p = command(vsub, "eps-sweep", _cmd_verify_eps_sweep, "nascent-delta convergence sweep")
    p.add_argument("--mu", type=_floats, required=True)
    p.add_argument("--eps", type=_floats, required=True, help="strictly decreasing list")
    p.add_argument("--times", type=_floats, required=True, help="probe times")

    p = command(vsub, "symmetry", _cmd_verify_symmetry, "symmetric-kernel permutation probe")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=int, default=0)

    p = vsub.add_parser("bounds", help="phi1 scalar plausibility bounds probe", parents=[out])
    p.add_argument("--samples", type=_int_at_least(1), default=10000)
    p.add_argument("--range", type=_floats, default="-5,5")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_bounds)

    p = command(vsub, "aux2d", _cmd_verify_aux2d, "order-2 auxiliary output delta-pulse limit",
                quad_kind)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--t2", type=float, required=True)
    p.add_argument("--eps", type=_floats, required=True, help="pulse widths, e.g. 1e-2,5e-3")
    p.add_argument("--nodes", type=int, default=201)
    p.add_argument("--pulse-div", dest="pulse_div", type=_int_at_least(1), default=20)

    return parser


def run_command(argv) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        sys_ = None
        if "system" in args:
            raw = system_from_document(_load_json(args.system))
            violations = validate(raw)
            if violations and args.command == "validate":
                print("\n".join(violations), file=_sys.stderr)
                return 2
            if violations:
                raise ValueError("; ".join(violations))
            sys_ = fold_implicit(raw)
            if args.command == "validate":
                return _cmd_validate(raw, sys_, args)
        if "channels" in args and not args.channels:
            # channel 1 for each of the k time (kernel) or frequency arguments
            args.channels = [1] * len(args.t if "t" in args else args.s)
        header, rows, *code = args.func(sys_, args)
        _emit_csv(args.out, header, rows)
        return code[0] if code else 0
    except (PoleHitError, GridResolutionError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run_command(_sys.argv[1:]))
