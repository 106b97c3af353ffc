"""bivolt benchmark: one workload per process, every result checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; bivolt is imported from its src/ directory,
never from an installed copy. Workloads (see workloads.py):

  sim_forced  RK4 engines under inputs that are nonzero on every step
  sim_pulse   RK4 engines after a delta_eps pulse, plus closed-form oracles
  spectral    transfer functions, kernels, quadrature and probes
  cli         one `bivolt` process per request

With --trace 0 the last line of output is a JSON object whose metrics are the
end-to-end figures, with times at a nominal machine speed (speed.py);
with --trace 1 they are the per-layer figures of a run in which every request
also runs once under the span recorder (tracer.py). Lines before it give each
figure with its unit, the raw times, the failure fraction and the environment.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every process it starts; this must
# happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_ROUNDS = 2        # passes of the job list per run, whatever --seconds says
HARD_STOP_S = 150.0   # start no request after this, so a run ends within 180 s
SETUP_PROBES = 5      # set-ups in fresh processes that setup_s is taken from
SETUP_REFERENCE_S = 0.2  # seconds of references before and after each of them
TAIL_RUNGS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_PASSES = 3       # passes the tail rung is chosen for: about what a run makes

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "wall_n4_s": "s", "wall_n20_s": "s",
    "wall_n100_s": "s", "req_p50_ms": "ms", "req_tail_ms": "ms",
    "err_rel": "ratio", "peak_rss_mb": "MB",
}


def _import_bivolt():
    """Import bivolt from this checkout's src/, or stop with a nonzero exit code."""
    if not os.path.isfile(os.path.join(SRC, "bivolt", "__init__.py")):
        sys.exit(f"perfbench: no bivolt sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import bivolt
    if os.path.dirname(os.path.dirname(os.path.abspath(bivolt.__file__))) != SRC:
        sys.exit(f"perfbench: bivolt imported from {bivolt.__file__}, not {SRC}")
    return bivolt


def _setup(name: str, seed: int, workdir: str):
    """Import, input generation and one warm-up pass on separate systems."""
    t0 = time.perf_counter()
    _import_bivolt()
    from workloads import WORKLOADS, Cli

    def build(warm):
        if WORKLOADS[name] is Cli:
            return Cli(seed, workdir, ROOT, warm=warm)
        return WORKLOADS[name](seed, warm=warm)

    warm = build(True)
    for req in warm.requests(0):
        try:
            req.check(req.call())
        except Exception:  # the measured passes count and report failures
            pass
    workload = build(False)
    return workload, time.perf_counter() - t0


def _probe_setups(name: str, seed: int, probe) -> float:
    """Mean set-up time at nominal speed, over set-ups in fresh processes.

    A set-up lasts about half a second, through many switches of machine
    speed, so the speed is taken from references over a comparable time
    between set-ups rather than from one reference on each side.
    """
    refs, times = probe.burst(SETUP_REFERENCE_S), []
    for _ in range(SETUP_PROBES):
        times.append(_probe_setup(name, seed))
        refs += probe.burst(SETUP_REFERENCE_S)
    return probe.nominal_mean(times, refs)


def _probe_setup(name: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


class Run:
    """Samples gathered over the passes of one run."""

    def __init__(self):
        self.spans: dict = {}        # job key -> (start, seconds) of each request
        self.sizes: dict = {}        # job key -> state size
        self.traced: dict = {}       # job key -> seconds of the traced twin requests
        self.errors: list = []
        self.attempted = self.failed = 0
        self.failures: list = []
        self.systems: dict = {}      # per-system request counts, one pass
        self.rounds = 0
        self.replay: dict = {"run_command_s": [], "startup_s": [], "traced_s": []}

    def fail(self, req, exc) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{req.key}: {type(exc).__name__}: {exc}")


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _measure(workload, seconds: float, probe, tracer=None) -> Run:
    """Passes over the job list until `seconds` have been spent, at least MIN_ROUNDS.

    A run stops at the first request after that time, within a pass, so every
    run measures about as long whatever its pass length; `rounds` then counts
    the last pass by the share of it that ran. With a tracer, every request also runs traced next to its untraced run,
    first or second in turn, so the overhead compares neighbouring calls
    rather than passes at different machine speeds.
    """
    from workloads import Cli
    run = Run()
    is_cli = isinstance(workload, Cli)
    start = time.perf_counter()
    while True:
        requests = workload.requests(run.rounds)
        for i, req in enumerate(requests):
            if run.rounds >= MIN_ROUNDS and (
                    time.perf_counter() - start > min(seconds, HARD_STOP_S)):
                run.rounds += i / len(requests)
                probe.sample()  # the reference after the last request
                return run
            run.attempted += 1
            if run.rounds == 0:
                key = id(req.system) if req.system is not None else ("process", i)
                run.systems[key] = run.systems.get(key, 0) + 1
            probe.maybe_sample()
            twin_first = tracer is not None and not is_cli and run.attempted % 2 == 1
            try:
                if twin_first:
                    _traced_twin(run, tracer, i, req)
                started = time.perf_counter()
                res = req.call()
                elapsed = time.perf_counter() - started
                err = req.check(res)
                if tracer is not None and is_cli:
                    _replay(run, tracer, i, req, res, elapsed)
                elif tracer is not None and not twin_first:
                    _traced_twin(run, tracer, i, req)
            except Exception as exc:  # a failing job is counted and must not end the run
                run.fail(req, exc)
                continue
            run.spans.setdefault(req.key, []).append((started, elapsed))
            run.sizes[req.key] = req.n
            if err is not None:
                run.errors.append(err)
        run.rounds += 1


def _traced_twin(run, tracer, i, req) -> None:
    _, traced = _timed(lambda: tracer.run_request(i, req.key, req.call))
    run.traced.setdefault(req.key, []).append(traced)


def _replay(run, tracer, i, req, res, process_s) -> None:
    """Run a cli request's argv through run_command in-process, untraced and traced."""
    import contextlib
    import io
    from oracles import CheckFailed
    import bivolt.cli

    def once():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bivolt.cli.run_command(list(req.argv))
        return code, out.getvalue()

    # Alternate which variant runs first, so neither always meets a cold cache.
    if len(run.replay["traced_s"]) % 2:
        (code, text), plain = _timed(once)
        _, traced = _timed(lambda: tracer.run_request(i, req.key, once))
    else:
        _, traced = _timed(lambda: tracer.run_request(i, req.key, once))
        (code, text), plain = _timed(once)
    if code != res.code or text != res.stdout:
        raise CheckFailed(f"{req.key}: run_command in-process differs from the process")
    run.replay["run_command_s"].append(plain)
    run.replay["startup_s"].append(process_s - plain)
    run.replay["traced_s"].append(traced)


def _median(xs):
    import statistics
    return statistics.median(xs) if xs else 0.0


def _percentile(values, q: float) -> float:
    """Harrell-Davis estimate of percentile q: a beta-weighted mean of all order statistics.

    A workload's jobs fall into clusters of similar length, and a plain
    percentile that lands where two clusters meet takes one or the other
    from run to run. This estimate weighs the order statistics near the
    percentile by their rank alone, so it moves smoothly instead.
    """
    import math
    import numpy as np
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    steps = 256 * n
    t = (np.arange(steps) + 0.5) / steps
    log_pdf = ((a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
               + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    weights = np.exp(log_pdf).reshape(n, 256).sum(axis=1)
    return float(weights @ x / weights.sum())


def _tail_rung(per_pass: int) -> float:
    """The highest rung that has at least ten requests above it in TAIL_PASSES passes.

    The rung depends on the job list, not on how many passes a run made, so
    runs of different lengths report the same percentile. A job list too short
    for any rung to have ten requests above it gets the highest rung with one.
    """
    basis = per_pass * TAIL_PASSES
    return next((q for q in TAIL_RUNGS if basis * (1 - q / 100) >= 10),
                next(q for q in TAIL_RUNGS if basis * (1 - q / 100) >= 1))


def _end_to_end(run: Run, probe, setup_s: float, peak_rss_mb: float) -> tuple[dict, str]:
    """Figures with every time at the probe's nominal speed, and a note on them.

    A job's time is its mean request time at nominal speed; wall figures add
    them up over the job list. Every job runs once a pass, so the latency
    percentiles are taken over the jobs' times: each request counts at its
    job's mean, which carries much less of the machine's noise than a single
    request does.
    """
    mean = {k: probe.normalize(v) for k, v in run.spans.items()}
    latency_ms = [1e3 * v for v in mean.values()]
    q = _tail_rung(len(latency_ms))
    tail = _percentile(latency_ms, q)
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(mean.values()),
        "wall_n4_s": sum(v for k, v in mean.items() if run.sizes[k] == 4),
        "wall_n20_s": sum(v for k, v in mean.items() if run.sizes[k] == 20),
        "wall_n100_s": sum(v for k, v in mean.items() if run.sizes[k] == 100),
        "req_p50_ms": _percentile(latency_ms, 50),
        "req_tail_ms": tail,
        "err_rel": max(run.errors, default=0.0),
        "peak_rss_mb": peak_rss_mb,
    }
    above = sum(len(run.spans[k]) for k, v in mean.items() if 1e3 * v > tail)
    requests = sum(len(v) for v in run.spans.values())
    raw_wall = sum(_median([dt for _, dt in v]) for v in run.spans.values())
    note = (f"req_tail_ms is p{q:g} of {requests} requests ({above} above it) "
            f"in {run.rounds:.3g} passes of {len(mean)} jobs; {len(probe.samples)} reference "
            f"timings, median {_median(probe.samples):.4g} s against {probe.nominal:.4g} s "
            f"nominal; raw wall_s (sum of job medians as measured) = {raw_wall:.6g} s")
    return metrics, note


def _per_layer(run: Run, tracer, workload) -> dict:
    m = tracer.layer_metrics(run.rounds)
    rp = run.replay
    m["cli.run_command_s"] = _median(rp["run_command_s"])
    m["cli.startup_s"] = _median(rp["startup_s"])
    m["cli.bytes_out"] = getattr(workload, "bytes_out", 0) / max(run.rounds, 1)
    m["cli.exit_nonzero"] = getattr(workload, "exit_nonzero", 0) / max(run.rounds, 1)
    m["reuse.calls_per_system"] = (sum(run.systems.values()) / len(run.systems)
                                   if run.systems else 0.0)
    if rp["traced_s"]:
        base, traced = sum(rp["run_command_s"]), sum(rp["traced_s"])
    else:
        base = sum(_median([dt for _, dt in v]) for v in run.spans.values())
        traced = sum(_median(v) for v in run.traced.values())
    m["trace.overhead_frac"] = traced / base - 1.0 if base else 0.0
    return m


LAYER_UNITS = {"calls": "count", "steps": "count", "pole_hits": "count",
               "exit_nonzero": "count", "bytes_out": "bytes", "steps_per_s": "1/s",
               "solves_per_eval": "count", "expm_per_eval": "count",
               "calls_per_system": "count"}


def _layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in LAYER_UNITS:
        return LAYER_UNITS[last]
    return "s" if last.endswith("_s") else "ratio"


def _environment() -> dict:
    import ctypes
    import glob
    import hashlib
    import platform
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                threads = fn()
                break
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "bivolt", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "git_sha": _git_sha(), "src_sha256": digest.hexdigest()[:16],
    }


def _git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim_forced", "sim_pulse", "spectral", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        workload, setup_s = _setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        from speed import SpeedProbe
        probe = SpeedProbe()
        setup_s = _probe_setups(args.workload, args.seed, probe)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            run = _measure(workload, args.seconds, probe, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        import resource
        if hasattr(workload, "max_rss_kb"):
            peak_kb = workload.max_rss_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        e2e, note = _end_to_end(run, probe, setup_s, peak_kb / 1024.0)
        for line in run.failures:
            print(f"FAILED {line}", file=sys.stderr)
        if tracer is not None:
            metrics = _per_layer(run, tracer, workload)
            units = {k: _layer_unit(k) for k in metrics}
            trace_dir = os.path.join(ROOT, ".perfbench-trace")
            os.makedirs(trace_dir, exist_ok=True)
            spans = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans)
            print(f"# spans: {len(tracer.spans)} written to {os.path.relpath(spans, ROOT)}")
        else:
            metrics, units = e2e, END_TO_END_UNITS
        for k, v in metrics.items():
            print(f"# {args.workload} {k} = {v:.6g} {units[k]}")
        print(f"# {note}")
        print(f"# fail_frac = {run.failed / max(run.attempted, 1):.6g} "
              f"({run.failed} of {run.attempted} requests)")
        print(f"# env {json.dumps(_environment())}")
        print(json.dumps({
            "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


if __name__ == "__main__":
    sys.exit(main())
