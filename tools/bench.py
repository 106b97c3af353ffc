"""Time bivolt's engines and evaluators call for call: `python tools/bench.py SUITE`.

Three suites, each run at n = 4, 20 and 100 on perfbench's systems (seed 1):

- rk4: `ode_direct` and `volterra_cascade` (K = 4) on grids of --steps steps
  (default 2500): sim_forced's step, sine and sampled inputs on its systems
  with dt = 4e-3, and sim_pulse's delta_eps pulse (eps = 1e-3, mu = (1, 0.5))
  on its systems (coupling 0.01) with dt = eps / 20, also with C = I at
  n = 20 and 100, where every state is an output. A step input makes every
  step part of a run, sine and sampled inputs force every step, and the pulse
  forces the steps at its edges and holds its plateau and the free dynamics
  after it as runs. Default --repeats 21: at 7, two copies of one tree read
  per-case ratios (--against) of 0.71 to 1.24, and at 21, 26 of 28 cases
  read inside [0.95, 1.05].
- spectral: scalar `expm` and `resolvent_apply`, the three transfer-function
  kinds (order 3, symmetric order 4), the three kernel kinds (order 4) and
  the Laplace quadrature as the spectral workload calls it, on spectral's
  systems. The quadrature runs on a memo hit, regular (`quad`) and
  triangular (`quad_tri`), where the system's transient growth is already
  stored, as every spectral request after the first finds it; and on a memo
  miss (`quad_miss`), on a fresh copy of the system, as the one call of each
  `bivolt verify laplace` process does; that copy also forms the eigenbasis
  in which the quadrature sums its axes. Each system also runs under a
  similarity x -> T x whose T has singular values from 1 down to 1/30, as
  tests/test_metamorphic.py builds it: past the eigenbasis gate, and with
  mu2(A) above every shift's real part, so that the three transfer-function
  kinds (`tf_reg_dense`, `tf_tri_dense`, `tf_sym_dense`) take the checked
  inverse for every shift, and at n = 100 the quadrature (`quad_dense`,
  `quad_dense_miss`) takes the dense path, which forms the node exponentials
  with expm. The regular and symmetric
  transfer functions also run on a fresh copy (`tf_reg_miss`, `tf_sym_miss`), which
  forms the system's mu2(A) and ||A||_inf that certify its shifts and the
  eigenbasis that solves the certified ones (one eig, cond and inv), as the
  one call of each `bivolt tf` process does. Default --repeats 51.
- closed: the closed forms as sim_pulse calls them, on the rk4 suite's pulse
  systems: `impulse_response` (`impulse`), `impulse_response_subsystem` at
  k = 4 (`impulse_k`) and `nascent_response` (`nascent`) at t = 1, and
  `eps_sweep` over sim_pulse's pulse widths and probe times. Each runs on a
  memo hit, where the system's eigenbasis is already formed, and on a fresh
  copy of the system (`*_miss`), where the first call forms it and its gate,
  as the one `bivolt impulse` process per system does. Also the two affine
  flows these take their states from, `linalg._affine_flow` alone: the
  impulse's, e^Nhat x0 + phi1(Nhat) bhat (`affine_flow_impulse`), and the
  pulse's over eps (`affine_flow_pulse`). And, once, `phi1_bounds_probe`
  over 1e4 samples of its default range (`phi1_probe`). Default --repeats 51.

The systems and inputs come from perfbench/inputs.py and the quadrature's
arguments from perfbench/workloads.py, so that directory must be on the
path. BLAS runs on one thread, as in perfbench/run.py. Every timed call
follows an untimed call of the same case, so the case timed before it does
not move its time: with the call cold, a copy of one version's
resolvent_apply read 1.26x that version's own at n = 20. Repeats go
round-robin over the cases, in alternating directions, so a drift in machine
speed touches every case alike. Each case's quartiles in ms are merged into
the file --out (default BENCH_<suite>.json) under --label, so one file can
hold the runs of two versions:

    PYTHONPATH=src:perfbench python tools/bench.py rk4 --label before
    PYTHONPATH=src:perfbench python tools/bench.py rk4 --label after

Runs in two processes meet two machine states, and on a shared machine that
moves a case by more than 10 %. With --against DIR (a source tree whose
bivolt package is DIR/bivolt, such as the src directory of a second
checkout) both versions are timed in one process, each call right next to
its counterpart. The record then also holds the other version's times and
the quartiles of the ratios over each two rounds, this version's time over
the other's:

    PYTHONPATH=src:perfbench python tools/bench.py spectral --label change \\
        --against ../parent/src

Two identical trees do not read 1.00 on every case (the self --against runs
in CHANGES.md): read a ratio against that spread.
"""

from __future__ import annotations

import os

# One BLAS thread, as in the benchmark; this must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import importlib.util
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

import bivolt
from inputs import (MILD, SIM, SIZES, SPECTRAL, STIFF, channels, forced_signals,
                    frequency_point, make_system)
from workloads import QUAD_PANELS, QUAD_S, QUAD_T, SimPulse

SEED = 1
# kappa(T) of the similarity that takes spectral's n = 100 system past the
# eigenbasis gate (quad_dense)
DENSE_COND = 30.0


def _rebuilt(bv, made, **change):
    """perfbench's system made, as a system of the package bv, with fields changed."""
    fields = {f.name: getattr(made, f.name) for f in dataclasses.fields(made)}
    return bv.BilinearSystem(**{**fields, **change})


def _similar(made, cond: float) -> dict:
    """The fields of made under x -> T x, T with singular values from 1 down to
    1 / cond: (T^-1 A T, T^-1 N_j T, T^-1 B, C T, T^-1 x0)."""
    n = made.A.shape[0]
    rng = np.random.default_rng(5)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    T = U @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ V.T
    Tinv = np.linalg.inv(T)
    return dict(A=Tinv @ made.A @ T, N=Tinv @ made.N @ T, B=Tinv @ made.B, C=made.C @ T,
                x0=Tinv @ made.x0)


def _warm(calls: dict) -> dict:
    """Cases (prepare, call) from thunks: the untimed call, then the timed one."""
    return {key: (call, lambda _, call=call: call()) for key, call in calls.items()}


def rk4(bv, steps: int) -> tuple[dict, dict]:
    """The rk4 suite's cases for the package bv, and its record fields."""
    K, dt, eps, mu = 4, 4e-3, 1e-3, (1.0, 0.5)
    grid = bv.TimeGrid(0.0, steps * dt, dt)
    pulse_grid = bv.TimeGrid(0.0, steps * eps / 20, eps / 20)
    signals = {kind: bv.SampledSignal(grid, u.values)
               for kind, u in forced_signals(grid, SEED).items()}
    pulse = bv.delta_eps_signal(pulse_grid, eps, mu)

    def system(n, coupling, **change):
        made = make_system(n, SEED, SIM, alpha_max=STIFF, coupling=coupling, with_x0=True)
        return _rebuilt(bv, made, **change)

    shapes = []
    for n in SIZES:
        forced, pulsed = system(n, 0.0025), system(n, 0.01)
        shapes += [(f"{kind}/n={n}", forced, u, grid) for kind, u in signals.items()]
        shapes.append((f"pulse/n={n}", pulsed, pulse, pulse_grid))
        if n in (20, 100):
            shapes.append((f"pulse_C=I/n={n}", system(n, 0.01, C=np.eye(n)), pulse, pulse_grid))
    calls = {}
    for key, sys_, u, g in shapes:
        calls[f"ode_direct/{key}"] = lambda s=sys_, u=u, g=g: bv.ode_direct(s, u, g)
        calls[f"cascade/{key}"] = lambda s=sys_, u=u, g=g: bv.volterra_cascade(s, u, K, g)
    return _warm(calls), {"steps": steps, "dt": dt, "K": K, "m": 2, "seed": SEED,
                          "pulse": {"eps": eps, "mu": list(mu), "dt": eps / 20}}


def spectral(bv, steps: int) -> tuple[dict, dict]:
    """The spectral suite's cases for the package bv, and its record fields."""
    tf_order, sym_order, kernel_order, expm_time = 3, 4, 4, 1.3
    quad_channels = (1, 2)

    def quad(sys_, kind="regular"):
        return bv.laplace_quadrature(sys_, quad_channels, kind, QUAD_S, QUAD_T, QUAD_PANELS)

    def cases_at(n):
        made = make_system(n, SEED, SPECTRAL, alpha_max=MILD, coupling=0.2, p=2)
        sys_ = _rebuilt(bv, made)
        rng = np.random.default_rng([SEED, n, 31])
        s, chs = frequency_point(rng, tf_order), channels(rng, tf_order)
        s_sym, chs_sym = frequency_point(rng, sym_order), channels(rng, sym_order)
        k_chs = channels(rng, kernel_order)
        t_tri = tuple(sorted(rng.uniform(0.1, 3.0, kernel_order), reverse=True))
        t_reg = tuple(rng.uniform(0.1, 2.0, kernel_order))
        calls = {
            "expm": lambda: bv.expm(sys_.A, expm_time),
            "resolvent_apply": lambda: bv.resolvent_apply(sys_.A, s[0], sys_.B[:, 0]),
            "tf_reg": lambda: bv.eval_tf_regular(sys_, chs, s),
            "tf_tri": lambda: bv.eval_tf_triangular(sys_, chs, s),
            "tf_sym": lambda: bv.eval_tf_symmetric(sys_, chs_sym, s_sym),
            "kern_tri": lambda: bv.eval_triangular(sys_, k_chs, t_tri),
            "kern_reg": lambda: bv.eval_regular(sys_, k_chs, t_reg),
            "kern_sym": lambda: bv.eval_symmetric(sys_, k_chs, t_reg),
            "quad": lambda: quad(sys_),
            "quad_tri": lambda: quad(sys_, "triangular"),
        }

        def fresh(**change):
            """A copy with no growth stored; its spectral abscissa is formed here."""
            copy = _rebuilt(bv, made, **change)
            copy.spectral_abscissa
            return copy

        def warm_miss(**change):  # on a copy of its own: the timed copy has no growth stored
            quad(fresh(**change))
            return fresh(**change)

        def on_copy(call):
            """The case of call(copy) on a fresh copy, which has nothing formed."""
            def warm():
                call(_rebuilt(bv, made))
                return _rebuilt(bv, made)
            return warm, call

        cases = {**_warm({f"{key}/n={n}": call for key, call in calls.items()}),
                 f"quad_miss/n={n}": (warm_miss, quad),
                 f"tf_reg_miss/n={n}": on_copy(lambda copy: bv.eval_tf_regular(copy, chs, s)),
                 f"tf_sym_miss/n={n}": on_copy(
                     lambda copy: bv.eval_tf_symmetric(copy, chs_sym, s_sym))}
        dense = _similar(made, DENSE_COND)
        dense_sys = _rebuilt(bv, made, **dense)
        assert dense_sys._eigenbasis is None
        cases.update(_warm({
            f"tf_reg_dense/n={n}": lambda: bv.eval_tf_regular(dense_sys, chs, s),
            f"tf_tri_dense/n={n}": lambda: bv.eval_tf_triangular(dense_sys, chs, s),
            f"tf_sym_dense/n={n}": lambda: bv.eval_tf_symmetric(dense_sys, chs_sym, s_sym)}))
        if n == 100:
            cases.update(_warm({f"quad_dense/n={n}": lambda: quad(dense_sys)}))
            cases[f"quad_dense_miss/n={n}"] = (lambda: warm_miss(**dense), quad)
        return cases

    cases = {key: case for n in SIZES for key, case in cases_at(n).items()}
    return cases, {"seed": SEED, "tf_order": tf_order, "sym_order": sym_order,
                   "kernel_order": kernel_order, "expm_time": expm_time,
                   "quadrature": {"T": QUAD_T, "panels": QUAD_PANELS,
                                  "s": [str(z) for z in QUAD_S],
                                  "channels": list(quad_channels),
                                  "dense_cond": DENSE_COND}}


def closed(bv, steps: int) -> tuple[dict, dict]:
    """The closed suite's cases for the package bv, and its record fields."""
    mu, eps, k, t = SimPulse.MU, SimPulse.EPS, 4, 1.0
    sweep, probes = SimPulse.SWEEP, (0.25, 1.0, 2.5)
    calls = {
        "impulse": lambda s: bv.impulse_response(s, mu, t),
        "impulse_k": lambda s: bv.impulse_response_subsystem(s, mu, k, t),
        "nascent": lambda s: bv.nascent_response(s, mu, eps, t),
        "eps_sweep": lambda s: bv.eps_sweep(s, mu, sweep, probes),
    }
    cases = {}
    for n in SIZES:
        made = make_system(n, SEED, SIM, alpha_max=STIFF, coupling=0.01, with_x0=True)
        sys_ = _rebuilt(bv, made)
        for key, call in calls.items():
            def warm_miss(call=call, made=made):  # the timed copy has no eigenbasis formed
                call(_rebuilt(bv, made))
                return _rebuilt(bv, made)
            cases.update(_warm({f"{key}/n={n}": lambda call=call, s=sys_: call(s)}))
            cases[f"{key}_miss/n={n}"] = (warm_miss, call)
        eff = bv.effective_matrices(sys_, mu)
        flows = {"impulse": (eff.Nhat, eff.bhat), "pulse": ((sys_.A + eff.Nhat / eps) * eps, eff.bhat)}
        cases.update(_warm({f"affine_flow_{key}/n={n}":
                            lambda M=M, b=b, x0=sys_.x0: bv.linalg._affine_flow(M, b, x0)
                            for key, (M, b) in flows.items()}))
    cases.update(_warm({"phi1_probe": lambda: bv.phi1_bounds_probe(10 ** 4)}))
    return cases, {"seed": SEED, "mu": list(mu), "eps": eps, "t": t, "k": k,
                   "sweep": {"eps": list(sweep), "probes": list(probes)}}


SUITES = {"rk4": (rk4, 21), "spectral": (spectral, 51), "closed": (closed, 51)}


def load_version(src: str, name: str):
    """The bivolt package in the directory src, imported as the package name."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(src, "bivolt", "__init__.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def round_robin(cases: dict, repeats: int) -> dict:
    """Seconds of call(prepare()) per key of cases (key -> (prepare, call)).

    Only call is timed; every prepare here makes an untimed call of its case.
    The result is freed after the clock is read, so that a call is not
    charged for freeing a large result.
    """
    times = {key: [] for key in cases}
    order = list(cases.items())
    for _ in range(repeats):
        for key, (prepare, call) in order:
            arg = prepare()
            t0 = time.perf_counter()
            result = call(arg)
            times[key].append(time.perf_counter() - t0)
            del result
        order.reverse()
    return times


def quartiles(values, scale: float = 1.0) -> dict:
    return dict(zip(("q1", "median", "q3"),
                    (round(scale * q, 3) for q in np.percentile(values, [25, 50, 75]))))


def paired_ratios(times: dict, other: dict) -> dict:
    """Quartiles, per key, of the time ratio of times to other over each two rounds.

    round_robin reverses its order every round, so two rounds give each of
    two neighbouring cases both places; a case that runs second can read
    25 % faster than when it runs first, which a per-round ratio would keep.
    """
    def pairs(t):
        t = np.asarray(t)
        return t[:-1:2] + t[1::2]
    return {key: quartiles(pairs(t) / pairs(other[key])) for key, t in times.items()}


def record(path: str, label: str, run: dict) -> None:
    """Merge run into the JSON file at path under label, keeping the other labels."""
    file = Path(path)
    results = json.loads(file.read_text()) if file.exists() else {}
    file.write_text(json.dumps({**results, label: run}, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("suite", choices=SUITES)
    ap.add_argument("--steps", type=int, default=2500, help="grid steps of each rk4 shape")
    ap.add_argument("--repeats", type=int,
                    help="timed calls per case (default: rk4 21, spectral and closed 51)")
    ap.add_argument("--label", default="current", help="key of this run in the file")
    ap.add_argument("--out", help="JSON file of the runs (default: BENCH_<suite>.json)")
    ap.add_argument("--against", metavar="DIR",
                    help="also time the bivolt package in DIR, call for call")
    args = ap.parse_args(argv)
    suite, repeats = SUITES[args.suite]
    repeats = args.repeats if args.repeats is not None else repeats
    if args.steps < 20 or repeats < (2 if args.against else 1):
        ap.error("--steps must be >= 20 (the pulse's length), and --repeats >= 1, "
                 "and >= 2 with --against")

    mine, run = suite(bivolt, args.steps)
    other = load_version(args.against, "bivolt_against") if args.against else None
    theirs = suite(other, args.steps)[0] if other else {}
    # Each case runs right before its counterpart in the other version, if any.
    times = round_robin({(key, version): cases[key] for key in mine
                         for version, cases in enumerate((mine, theirs)) if cases}, repeats)
    against = {key: times[key, 1] for key in theirs}
    times = {key: times[key, 0] for key in mine}
    run.update(repeats=repeats, machine=platform.machine(),
               python=platform.python_version(), numpy=np.__version__,
               ms={key: quartiles(t, 1e3) for key, t in times.items()})
    if against:
        ratios = paired_ratios(times, against)
        run["against"] = {"ms": {key: quartiles(t, 1e3) for key, t in against.items()},
                          "ratio": ratios}
    record(args.out or f"BENCH_{args.suite}.json", args.label, run)

    width = max(map(len, times))
    for key, t in run["ms"].items():
        print(f"{key:{width}s} {t['median']:9.3f} ms")
    if against:
        print("time over --against's, per two rounds (q1 median q3):")
        for key, r in ratios.items():
            print(f"{key:{width}s} {r['q1']:6.3f} {r['median']:6.3f} {r['q3']:6.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
