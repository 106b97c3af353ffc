"""Time the RK4 engines under forced inputs and after a short pulse.

Runs `ode_direct` and `volterra_cascade` (K = 4) at n = 4, 20 and 100
(seed 1) in two shapes, and writes each call's median time and quartiles to
a JSON file:

- sim_forced's step, sine and sampled inputs on its systems and a grid of
  dt = 4e-3;
- sim_pulse's delta_eps pulse (eps = 1e-3, mu = (1, 0.5)) on its systems
  (coupling 0.01) and a grid of dt = eps / 20.

Both grids have --steps steps. The systems and inputs come from
perfbench/inputs.py, so that directory must be on the path. BLAS runs on one
thread, as in perfbench/run.py. Repeats go round-robin over the calls and
results are merged into the file under --label (tools/harness.py), so one
file can hold the runs of two versions:

    PYTHONPATH=src:perfbench python tools/bench_rk4.py --label before
    PYTHONPATH=src:perfbench python tools/bench_rk4.py --label after

Step inputs are constant, so every step is a run map; sine and sampled inputs
change on every step, so every step is forced. The pulse forces the steps
at its edges and holds its plateau and the free dynamics after it as runs.
"""

from __future__ import annotations

import os

# One BLAS thread, as in the benchmark; this must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse

import bivolt as bv
from harness import record, round_robin
from inputs import SIM, SIZES, STIFF, forced_signals, make_system

K = 4
SEED = 1
DT = 4e-3
EPS, MU = 1e-3, (1.0, 0.5)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=2500, help="grid steps of each shape")
    ap.add_argument("--repeats", type=int, default=7, help="timed calls per case")
    ap.add_argument("--label", default="current", help="key of this run in the file")
    ap.add_argument("--out", default="BENCH_rk4.json")
    args = ap.parse_args(argv)
    if args.steps < 20 or args.repeats < 1:
        ap.error("--steps must be >= 20 (the pulse's length) and --repeats >= 1")

    grid = bv.TimeGrid(0.0, args.steps * DT, DT)
    pulse_grid = bv.TimeGrid(0.0, args.steps * EPS / 20, EPS / 20)
    signals = forced_signals(grid, SEED)
    pulse = bv.delta_eps_signal(pulse_grid, EPS, MU)
    cases = {}
    for n in SIZES:
        forced = make_system(n, SEED, SIM, alpha_max=STIFF, coupling=0.0025,
                             with_x0=True)
        pulsed = make_system(n, SEED, SIM, alpha_max=STIFF, coupling=0.01,
                             with_x0=True)
        shapes = [(kind, forced, u, grid) for kind, u in signals.items()]
        shapes.append(("pulse", pulsed, pulse, pulse_grid))
        for kind, sys_, u, g in shapes:
            cases[f"ode_direct/{kind}/n={n}"] = (
                lambda s=sys_: s, lambda s, u=u, g=g: bv.ode_direct(s, u, g))
            cases[f"cascade/{kind}/n={n}"] = (
                lambda s=sys_: s, lambda s, u=u, g=g: bv.volterra_cascade(s, u, K, g))
    times = round_robin(cases, args.repeats)
    record(args.out, args.label,
           {"steps": grid.nodes - 1, "dt": DT, "K": K, "m": forced.m, "seed": SEED,
            "pulse": {"eps": EPS, "mu": list(MU), "dt": pulse_grid.dt}}, times)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
