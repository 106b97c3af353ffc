"""Time the Laplace quadrature on a memo hit and on a memo miss.

Runs `laplace_quadrature` as perfbench's spectral workload calls it (channels
1, 2, its frequency pair, horizon and panel count) on spectral's systems at
n = 4, 20 and 100 (seed 1), and writes each call's median time and quartiles
to a JSON file. The systems come from perfbench/inputs.py and the call's
arguments from perfbench/workloads.py, so that directory must be on the path.
A hit reuses a system whose transient growth is already stored, as every
spectral request after the first does; a miss runs on a fresh copy of the
system, as the one call of each `bivolt verify laplace` process does. BLAS
runs on one thread, as in perfbench/run.py. Repeats go round-robin over the
calls and results are merged into the file under --label (tools/harness.py),
so one file can hold the runs of two versions:

    PYTHONPATH=src:perfbench python tools/bench_quadrature.py --label before
    PYTHONPATH=src:perfbench python tools/bench_quadrature.py --label after
"""

from __future__ import annotations

import os

# One BLAS thread, as in the benchmark; this must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse

import bivolt as bv
from harness import record, round_robin
from inputs import MILD, SIZES, SPECTRAL, make_system
from workloads import QUAD_PANELS, QUAD_S, QUAD_T

SEED = 1
CHANNELS = (1, 2)


def fresh(sys_: bv.BilinearSystem) -> bv.BilinearSystem:
    """A copy of sys_ with no stored growth; its spectral abscissa is formed here."""
    copy = bv.BilinearSystem(A=sys_.A, N=sys_.N, B=sys_.B, C=sys_.C)
    copy.spectral_abscissa
    return copy


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--panels", type=int, default=QUAD_PANELS, help="fine-run panels")
    ap.add_argument("--repeats", type=int, default=7, help="timed calls per case")
    ap.add_argument("--label", default="current", help="key of this run in the file")
    ap.add_argument("--out", default="BENCH_quadrature.json")
    args = ap.parse_args(argv)
    if args.panels < 1 or args.repeats < 1:
        ap.error("--panels and --repeats must be >= 1")

    def quad(sys_, kind):
        return bv.laplace_quadrature(sys_, CHANNELS, kind, QUAD_S, QUAD_T, args.panels)

    def warm_hit(sys_, kind):
        quad(sys_, kind)
        return sys_

    def warm_miss(sys_):
        quad(fresh(sys_), "regular")
        return fresh(sys_)

    # Each timed call follows an untimed one of the same case, so the case
    # timed before it does not move its time; a miss is warmed on a copy of
    # its own, so the copy it is timed on still has no growth stored.
    cases = {}
    for n in SIZES:
        sys_ = make_system(n, SEED, SPECTRAL, alpha_max=MILD, coupling=0.2, p=2)
        for kind in ("regular", "triangular"):
            cases[f"hit/{kind}/n={n}"] = (lambda s=sys_, kind=kind: warm_hit(s, kind),
                                          lambda s, kind=kind: quad(s, kind))
        cases[f"miss/regular/n={n}"] = (lambda s=sys_: warm_miss(s),
                                        lambda s: quad(s, "regular"))
    times = round_robin(cases, args.repeats)  # the warm-up stores the growth of the hits
    record(args.out, args.label,
           {"T": QUAD_T, "panels": args.panels, "s": [str(z) for z in QUAD_S],
            "channels": list(CHANNELS), "seed": SEED}, times)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
