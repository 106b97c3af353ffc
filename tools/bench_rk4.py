"""Time the RK4 engines under forced inputs and after a short pulse.

Runs `ode_direct` and `volterra_cascade` (K = 4) at n = 4, 20 and 100
(seed 1) in two shapes, and writes each call's median time and quartiles to
a JSON file:

- sim_forced's step, sine and sampled inputs on its systems and a grid of
  dt = 4e-3;
- sim_pulse's delta_eps pulse (eps = 1e-3, mu = (1, 0.5)) on its systems
  (coupling 0.01) and a grid of dt = eps / 20, and the same pulse with C = I
  at n = 20 and 100, where every state is an output.

Both grids have --steps steps. The systems and inputs come from
perfbench/inputs.py, so that directory must be on the path. BLAS runs on one
thread, as in perfbench/run.py. Repeats go round-robin over the calls and
results are merged into the file under --label (tools/harness.py), so one
file can hold the runs of two versions:

    PYTHONPATH=src:perfbench python tools/bench_rk4.py --label before
    PYTHONPATH=src:perfbench python tools/bench_rk4.py --label after

With --against DIR (a source tree whose bivolt package is DIR/bivolt) both
versions are timed in one process, each call right next to its counterpart;
the record then also holds the other version's times and the quartiles of
the ratios over each two rounds, this version's time over the other's:

    PYTHONPATH=src:perfbench python tools/bench_rk4.py --label change \
        --against ../parent/src

Step inputs are constant, so every step is in a run; sine and sampled inputs
change on every step, so every step is forced. The pulse forces the steps
at its edges and holds its plateau and the free dynamics after it as runs.
"""

from __future__ import annotations

import os

# One BLAS thread, as in the benchmark; this must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses

import numpy as np

import bivolt as bv
from harness import load_version, paired_ratios, quartiles, record, round_robin
from inputs import SIM, SIZES, STIFF, forced_signals, make_system

K = 4
SEED = 1
DT = 4e-3
EPS, MU = 1e-3, (1.0, 0.5)
EYE_SIZES = (20, 100)
AGAINST = "against:"


def cases_for(steps: int, bv=bv) -> dict:
    """Timed calls of the package bv, keyed by engine, input and size."""
    grid = bv.TimeGrid(0.0, steps * DT, DT)
    pulse_grid = bv.TimeGrid(0.0, steps * EPS / 20, EPS / 20)
    signals = {kind: bv.SampledSignal(grid, u.values)
               for kind, u in forced_signals(grid, SEED).items()}
    pulse = bv.delta_eps_signal(pulse_grid, EPS, MU)

    def system(n, coupling, **change):
        made = make_system(n, SEED, SIM, alpha_max=STIFF, coupling=coupling, with_x0=True)
        fields = {f.name: getattr(made, f.name) for f in dataclasses.fields(made)}
        return bv.BilinearSystem(**{**fields, **change})

    shapes = []
    for n in SIZES:
        forced, pulsed = system(n, 0.0025), system(n, 0.01)
        shapes += [(f"{kind}/n={n}", forced, u, grid) for kind, u in signals.items()]
        shapes.append((f"pulse/n={n}", pulsed, pulse, pulse_grid))
        if n in EYE_SIZES:
            shapes.append((f"pulse_C=I/n={n}", system(n, 0.01, C=np.eye(n)), pulse, pulse_grid))
    calls = {}
    for key, sys_, u, g in shapes:
        calls[f"ode_direct/{key}"] = lambda s=sys_, u=u, g=g: bv.ode_direct(s, u, g)
        calls[f"cascade/{key}"] = lambda s=sys_, u=u, g=g: bv.volterra_cascade(s, u, K, g)
    # Each timed call follows an untimed one of the same case, so the case
    # timed before it does not move its time.
    return {key: (call, lambda _, call=call: call()) for key, call in calls.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=2500, help="grid steps of each shape")
    ap.add_argument("--repeats", type=int, default=7, help="timed calls per case")
    ap.add_argument("--label", default="current", help="key of this run in the file")
    ap.add_argument("--out", default="BENCH_rk4.json")
    ap.add_argument("--against", metavar="DIR",
                    help="also time the bivolt package in DIR, call for call")
    args = ap.parse_args(argv)
    if args.steps < 20 or args.repeats < (2 if args.against else 1):
        ap.error("--steps must be >= 20 (the pulse's length), and --repeats >= 1, "
                 "and >= 2 with --against")

    other = load_version(args.against, "bivolt_against") if args.against else None
    cases = {}
    theirs = cases_for(args.steps, other) if other else {}
    for key, case in cases_for(args.steps).items():
        cases[key] = case
        if theirs:
            cases[AGAINST + key] = theirs[key]
    times = round_robin(cases, args.repeats)
    against = {key[len(AGAINST):]: times.pop(key) for key in list(times)
               if key.startswith(AGAINST)}
    run = {"steps": args.steps, "dt": DT, "K": K, "m": 2, "seed": SEED,
           "pulse": {"eps": EPS, "mu": list(MU), "dt": EPS / 20}}
    if against:
        ratios = paired_ratios(times, against)
        run["against"] = {"ms": {key: quartiles(t, 1e3) for key, t in against.items()},
                          "ratio": ratios}
    record(args.out, args.label, run, times)
    if against:
        print("time over --against's, per two rounds (q1 median q3):")
        width = max(map(len, ratios))
        for key, r in ratios.items():
            print(f"{key:{width}s} {r['q1']:6.3f} {r['median']:6.3f} {r['q3']:6.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
