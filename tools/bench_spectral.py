"""Time the spectral evaluators and the linear algebra under them.

Runs scalar `expm` and `resolvent_apply`, the three transfer-function kinds,
the three kernel kinds and the Laplace quadrature on perfbench's spectral
systems at n = 4, 20 and 100 (seed 1), and writes each call's median time and
quartiles to a JSON file. Transfer functions are evaluated at order 3
(symmetric at order 4), kernels at order 4, and the quadrature as the spectral
workload calls it, on a system whose transient growth is already stored. The
systems, frequency points and channels come from perfbench/inputs.py and the
quadrature's arguments from perfbench/workloads.py, so that directory must be
on the path. BLAS runs on one thread, as in perfbench/run.py. Repeats go
round-robin over the calls and results are merged into the file under --label
(tools/harness.py), so one file can hold the runs of two versions:

    PYTHONPATH=src:perfbench python tools/bench_spectral.py --label before
    PYTHONPATH=src:perfbench python tools/bench_spectral.py --label after

Runs in two processes meet two machine states, and on a shared machine that
moves a case by more than 10 %. With --against DIR (a source tree whose
bivolt package is DIR/bivolt, such as the src directory of a second
checkout) both versions are timed in one process, each call right next to
its counterpart; the record then also holds the other version's times and
the quartiles of the ratios over each two rounds (tools/harness.py), this
version's time over the other's:

    PYTHONPATH=src:perfbench python tools/bench_spectral.py --label change \
        --against ../parent/src
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
from inputs import MILD, SIZES, SPECTRAL, channels, frequency_point, make_system
from workloads import QUAD_PANELS, QUAD_S, QUAD_T

SEED = 1
TF_ORDER, SYM_ORDER, KERNEL_ORDER = 3, 4, 4
EXPM_TIME = 1.3
AGAINST = "against:"


def cases_for(n: int, bv=bv) -> dict:
    """Timed calls of the package bv on spectral's system of size n, keyed by name and size."""
    made = make_system(n, SEED, SPECTRAL, alpha_max=MILD, coupling=0.2, p=2)
    sys_ = bv.BilinearSystem(**{f.name: getattr(made, f.name)
                                for f in dataclasses.fields(made)})
    rng = np.random.default_rng([SEED, n, 31])
    s, chs = frequency_point(rng, TF_ORDER), channels(rng, TF_ORDER)
    s_sym, chs_sym = frequency_point(rng, SYM_ORDER), channels(rng, SYM_ORDER)
    k_chs = channels(rng, KERNEL_ORDER)
    t_tri = tuple(sorted(rng.uniform(0.1, 3.0, KERNEL_ORDER), reverse=True))
    t_reg = tuple(rng.uniform(0.1, 2.0, KERNEL_ORDER))
    calls = {
        "expm": lambda: bv.expm(sys_.A, EXPM_TIME),
        "resolvent_apply": lambda: bv.resolvent_apply(sys_.A, s[0], sys_.B[:, 0]),
        "tf_reg": lambda: bv.eval_tf_regular(sys_, chs, s),
        "tf_tri": lambda: bv.eval_tf_triangular(sys_, chs, s),
        "tf_sym": lambda: bv.eval_tf_symmetric(sys_, chs_sym, s_sym),
        "kern_tri": lambda: bv.eval_triangular(sys_, k_chs, t_tri),
        "kern_reg": lambda: bv.eval_regular(sys_, k_chs, t_reg),
        "kern_sym": lambda: bv.eval_symmetric(sys_, k_chs, t_reg),
        "quad": lambda: bv.laplace_quadrature(sys_, [1, 2], "regular", QUAD_S,
                                              QUAD_T, QUAD_PANELS),
    }
    # Each timed call follows an untimed one of the same case, so the case
    # timed before it does not move its time: with the call cold, a copy of
    # the parent's resolvent_apply read 1.26x the parent's own at n = 20.
    return {f"{key}/n={n}": (call, lambda _, call=call: call())
            for key, call in calls.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=51, help="timed calls per case")
    ap.add_argument("--label", default="current", help="key of this run in the file")
    ap.add_argument("--out", default="BENCH_spectral.json")
    ap.add_argument("--against", metavar="DIR",
                    help="also time the bivolt package in DIR, call for call")
    args = ap.parse_args(argv)
    if args.repeats < (2 if args.against else 1):
        ap.error("--repeats must be >= 1, and >= 2 with --against")
    other = load_version(args.against, "bivolt_against") if args.against else None
    cases = {}
    for n in SIZES:
        theirs = cases_for(n, other) if other else {}
        for key, case in cases_for(n).items():
            cases[key] = case
            if theirs:
                cases[AGAINST + key] = theirs[key]
    times = round_robin(cases, args.repeats)  # the warm-up stores the quadrature's growth
    against = {key[len(AGAINST):]: times.pop(key) for key in list(times)
               if key.startswith(AGAINST)}
    run = {"seed": SEED, "tf_order": TF_ORDER, "sym_order": SYM_ORDER,
           "kernel_order": KERNEL_ORDER, "expm_time": EXPM_TIME,
           "quadrature": {"T": QUAD_T, "panels": QUAD_PANELS,
                          "s": [str(z) for z in QUAD_S]}}
    if against:
        ratios = paired_ratios(times, against)
        run["against"] = {"ms": {key: quartiles(t, 1e3) for key, t in against.items()},
                          "ratio": ratios}
    record(args.out, args.label, run, times)
    if against:
        print("time over --against's, per two rounds (q1 median q3):")
        for key, r in ratios.items():
            print(f"{key:22s} {r['q1']:6.3f} {r['median']:6.3f} {r['q3']:6.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
