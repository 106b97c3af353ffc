"""Time the RK4 engines under inputs that are nonzero on every step.

Runs `ode_direct` and `volterra_cascade` (K = 4) under the step, sine and
sampled inputs of perfbench's sim_forced workload, on its systems at n = 4,
20 and 100 (seed 1) and a 2500-step grid, and writes each call's median time
and quartiles to a JSON file. The systems and inputs come from
perfbench/inputs.py, so that directory must be on the path. Repeats go
round-robin over the calls, so a drift in machine speed touches every call
alike. Results are merged into the file under --label, so one file can hold
the runs of two versions:

    PYTHONPATH=src:perfbench python tools/bench_rk4.py --label before
    PYTHONPATH=src:perfbench python tools/bench_rk4.py --label after

Step inputs are constant, so every step is a run map; sine and sampled inputs
change on every step, so every step is forced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

import numpy as np

import bivolt as bv
from inputs import SIM, SIZES, STIFF, forced_signals, make_system

K = 4
SEED = 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=2500, help="grid steps (dt = 4e-3)")
    ap.add_argument("--repeats", type=int, default=7, help="timed calls per case")
    ap.add_argument("--label", default="current", help="key of this run in the file")
    ap.add_argument("--out", default="BENCH_rk4.json")
    args = ap.parse_args(argv)
    if args.steps < 1 or args.repeats < 1:
        ap.error("--steps and --repeats must be >= 1")

    dt = 4e-3
    grid = bv.TimeGrid(0.0, args.steps * dt, dt)
    inputs = forced_signals(grid, SEED)
    cases = {}
    for n in SIZES:
        sys_ = make_system(n, SEED, SIM, alpha_max=STIFF, coupling=0.0025,
                           with_x0=True)
        for kind, u in inputs.items():
            cases[f"ode_direct/{kind}/n={n}"] = (
                lambda s=sys_, u=u: bv.ode_direct(s, u, grid))
            cases[f"cascade/{kind}/n={n}"] = (
                lambda s=sys_, u=u: bv.volterra_cascade(s, u, K, grid))
    times = {key: [] for key in cases}
    for call in cases.values():  # warm-up
        call()
    for _ in range(args.repeats):
        for key, call in cases.items():
            t0 = time.perf_counter()
            call()
            times[key].append(time.perf_counter() - t0)

    run = {"steps": grid.nodes - 1, "dt": dt, "K": K, "m": sys_.m, "seed": SEED,
           "repeats": args.repeats, "machine": platform.machine(),
           "python": platform.python_version(), "numpy": np.__version__,
           "ms": {key: dict(zip(("q1", "median", "q3"),
                                (round(1e3 * q, 3) for q in np.percentile(t, [25, 50, 75]))))
                  for key, t in times.items()}}
    results = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            results = json.load(f)
    results[args.label] = run
    with open(args.out, "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
        f.write("\n")
    for key, t in run["ms"].items():
        print(f"{key:28s} {t['median']:9.3f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
