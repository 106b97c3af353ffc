"""The four workloads: fixed job lists of requests into bivolt, each checked.

A request is one top-level call the benchmark makes into bivolt in-process,
or one `bivolt` process for the cli workload. Every workload is a closed loop
with one client: the next request starts when the previous one returns. A
round is one pass over the workload's job list; `key` names a job across
rounds so its times in different passes can be compared.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import bivolt as bv
from inputs import (ABSCISSA, CLI, MILD, SIM, SIZES, SPECTRAL, STEP_MU,
                    STIFF, WARM, channels, forced_signals, frequency_point,
                    make_system)
from oracles import (TOL_ALGEBRA, TOL_EXACT, TOL_PROBE, TOL_QUAD, TOL_SIM,
                     CheckFailed, Reference, close, expect, rel_err, require,
                     roc_margin)


@dataclass
class Request:
    key: str
    n: int
    system: Any                          # what a per-system cache would key on
    call: Callable[[], Any]
    check: Callable[[Any], float | None]  # error against an oracle, or None
    argv: tuple = ()                     # cli requests only


class Workload:
    """Job list of one workload, built from the seed; `requests(r)` is round r."""

    name = ""

    def __init__(self, seed: int, warm: bool = False):
        self.seed = seed
        self.warm = warm
        self.sizes = (4,) if warm else SIZES
        self._refs: dict = {}
        self._memo: dict = {}

    def ref(self, sys_) -> Reference:
        if id(sys_) not in self._refs:
            self._refs[id(sys_)] = Reference(sys_)
        return self._refs[id(sys_)]

    def memo(self, key, fn):
        """Reference values are deterministic; compute each once per run."""
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def system(self, n: int, purpose: int, **kw) -> bv.BilinearSystem:
        return make_system(n, self.seed, WARM if self.warm else purpose, **kw)

    def requests(self, r: int) -> list[Request]:
        raise NotImplementedError


# -- simulation -----------------------------------------------------------------

CASCADE_K = 4


class SimForced(Workload):
    """RK4 on 2500-step grids under inputs that are nonzero on every step.

    Every pass runs step, sine and sampled inputs. The step input has a
    closed-form oracle; the others are checked by agreement of the engines.
    Grids are kept to 2500 steps so that a run holds many requests, each with
    a speed reference next to it (speed.py).
    """

    name = "sim_forced"
    KINDS = ("step", "sine", "sampled")

    def __init__(self, seed: int, warm: bool = False):
        super().__init__(seed, warm)
        t1 = 4.0 if warm else 10.0
        self.grid = bv.TimeGrid(0.0, t1, 4e-3)
        self.probes = [t for t in (0.1, 0.5, 2.0, 10.0) if t <= t1]
        self.index = [int(round(t / self.grid.dt)) for t in self.probes]
        self.signals = forced_signals(self.grid, seed)
        self.systems = {n: self.system(n, SIM, alpha_max=STIFF, coupling=0.0025,
                                       with_x0=True) for n in self.sizes}

    def _oracle(self, n):
        ref = self.ref(self.systems[n])
        return self.memo(("step", n), lambda: np.array(
            [ref.constant_input_output(STEP_MU, t) for t in self.probes]))

    def requests(self, r):
        return [q for n in self.sizes for kind in self.KINDS for q in self._pair(n, kind)]

    def _pair(self, n, kind):
        u, grid, sys_ = self.signals[kind], self.grid, self.systems[n]
        direct: dict = {}

        def check_direct(res):
            direct["y"] = res.values
            if kind == "step":
                return close(res.values[self.index], self._oracle(n), TOL_SIM,
                             f"ode_direct n={n} vs constant-input solution")
            return None

        def check_cascade(res):
            if kind == "step":
                return close(res.total[self.index], self._oracle(n), TOL_SIM,
                             f"cascade n={n} vs constant-input solution")
            if "y" not in direct:
                raise CheckFailed(f"cascade n={n}: no ode_direct result to compare")
            require(rel_err(res.total, direct["y"]), TOL_SIM,
                    f"cascade n={n} vs ode_direct ({kind} input)")
            return None

        return [Request(f"ode_direct/{kind}/n={n}", n, sys_,
                        lambda: bv.ode_direct(sys_, u, grid), check_direct),
                Request(f"cascade/{kind}/n={n}", n, sys_,
                        lambda: bv.volterra_cascade(sys_, u, CASCADE_K, grid),
                        check_cascade)]


class SimPulse(Workload):
    """RK4 on 5e4-step grids (dt = eps/20) after a delta_eps pulse, plus oracles.

    Grids end at t = 2.5 so that a run holds ten or more requests of each
    engine and size, each with speed references next to it (speed.py).
    """

    name = "sim_pulse"
    EPS = 1e-3
    MU = (1.0, 0.5)
    SWEEP = (4e-3, 2e-3, 1e-3, 5e-4)

    def __init__(self, seed: int, warm: bool = False):
        super().__init__(seed, warm)
        t1 = 0.5 if warm else 2.5
        self.grid = bv.TimeGrid(0.0, t1, self.EPS / 20)
        self.probes = [t for t in (0.01, 0.25, 1.0, 2.5) if t <= t1]
        self.index = [int(round(t / self.grid.dt)) for t in self.probes]
        self.signal = bv.delta_eps_signal(self.grid, self.EPS, self.MU)
        self.systems = {n: self.system(n, SIM, alpha_max=STIFF, coupling=0.01,
                                       with_x0=True) for n in self.sizes}

    def requests(self, r):
        out = []
        mu, eps, grid, u = self.MU, self.EPS, self.grid, self.signal
        for n in self.sizes:
            sys_ = self.systems[n]
            ref = self.ref(sys_)
            traj = lambda n=n, ref=ref: self.memo(("pulse", n), lambda: ref.sampled_pulse_output(
                mu, eps, grid.dt, self.probes))
            out.append(Request(
                f"ode_direct/n={n}", n, sys_, lambda s=sys_: bv.ode_direct(s, u, grid),
                lambda res, n=n, traj=traj: close(res.values[self.index], traj(), TOL_SIM,
                                                  f"ode_direct n={n} vs pulse solution")))
            out.append(Request(
                f"cascade/n={n}", n, sys_,
                lambda s=sys_: bv.volterra_cascade(s, u, CASCADE_K, grid),
                lambda res, n=n, traj=traj: close(res.total[self.index], traj(), TOL_SIM,
                                                  f"cascade n={n} vs pulse solution")))
            # With this many closed-form requests the median and p90 of a pass
            # fall inside clusters of similar latencies, not between two.
            for t in self.probes:
                out.append(Request(
                    f"impulse/n={n}/t={t}", n, sys_,
                    lambda s=sys_, t=t: bv.impulse_response(s, mu, t),
                    lambda res, ref=ref, t=t: close(res, ref.impulse(mu, t), TOL_ALGEBRA,
                                                    f"impulse_response t={t}")))
                out.append(Request(
                    f"nascent/n={n}/t={t}", n, sys_,
                    lambda s=sys_, t=t: bv.nascent_response(s, mu, eps, t),
                    lambda res, ref=ref, t=t: close(res, ref.rectangle_pulse_output(mu, eps, t),
                                                    TOL_ALGEBRA, f"nascent_response t={t}")))
            for t in self.probes:
                for k in range(1, CASCADE_K + 1):
                    out.append(Request(
                        f"impulse_k/n={n}/t={t}/k={k}", n, sys_,
                        lambda s=sys_, k=k, t=t: bv.impulse_response_subsystem(s, mu, k, t),
                        lambda res, ref=ref, k=k, t=t: close(
                            res, ref.impulse(mu, t, k), TOL_ALGEBRA,
                            f"impulse_response_subsystem k={k} t={t}")))
            sweep_probes = self.probes[1:]
            out.append(Request(
                f"eps_sweep/n={n}", n, sys_,
                lambda s=sys_: bv.eps_sweep(s, mu, self.SWEEP, sweep_probes),
                lambda res, n=n, ref=ref: self._check_sweep(res, n, ref, sweep_probes)))
        return out

    def _check_sweep(self, rep, n, ref, probes):
        want = self.memo(("sweep", n), lambda: np.array([max(
            float(np.max(np.abs(ref.rectangle_pulse_output(self.MU, e, t)
                                - ref.impulse(self.MU, t)))) for t in probes)
            for e in self.SWEEP]))
        # The errors are differences of nearby values, so they keep fewer digits.
        close(rep.errors, want, 1e3 * TOL_ALGEBRA, f"eps_sweep n={n} errors")
        expect(np.all((rep.ratios >= 1.5) & (rep.ratios <= 2.5)),
               f"eps_sweep n={n}: ratios {rep.ratios} are not first order")


# -- frequency domain and kernels ---------------------------------------------

QUAD_T, QUAD_PANELS = 16.0, 32
QUAD_S = (1.0 + 0.5j, 0.8 - 1.0j)
SWEEP_POINTS = 8


class Spectral(Workload):
    """Transfer functions, ROC margins, kernels, quadrature and probes; no RK4."""

    name = "spectral"
    KERNELS = {"triangular": "eval_triangular", "regular": "eval_regular",
               "symmetric": "eval_symmetric"}

    def __init__(self, seed: int, warm: bool = False):
        super().__init__(seed, warm)
        self.systems = {n: self.system(n, SPECTRAL, alpha_max=MILD, coupling=0.2, p=2)
                        for n in self.sizes}
        self.jobs = [q for n in self.sizes for q in self._jobs(n)]

    def requests(self, r):
        return self.jobs

    def _jobs(self, n):
        sys_ = self.systems[n]
        ref = self.ref(sys_)
        rng = np.random.default_rng([self.seed, n, 21])
        out = []

        def add(key, call, want, get=lambda res: res, tol=TOL_ALGEBRA):
            key = f"{key}/n={n}"
            out.append(Request(key, n, sys_, call, lambda res: close(
                get(res), self.memo(key, want), tol, key)))

        def value(res):
            return res.value

        for j in range(SWEEP_POINTS):
            base, chs = frequency_point(rng, 3), channels(rng, 3)
            for k in (1, 2, 3):
                s, c = base[:k], chs[:k]
                add(f"tf_reg/p{j}/k{k}", lambda c=c, s=s: bv.eval_tf_regular(sys_, c, s),
                    lambda c=c, s=s: ref.tf("regular", c, s), value)
                add(f"tf_tri/p{j}/k{k}", lambda c=c, s=s: bv.eval_tf_triangular(sys_, c, s),
                    lambda c=c, s=s: ref.tf("triangular", c, s), value)
                for kind in ("regular", "triangular"):
                    add(f"roc_{kind}/p{j}/k{k}", lambda s=s, kind=kind: bv.roc_margin(sys_, s, kind),
                        lambda s=s, kind=kind: roc_margin(kind, s, ABSCISSA))
        # Up to k = 5 (k = 4 at n = 100): one call at k = 6 takes 0.5 s at n = 4
        # and 2 s at n = 20, so a run would hold too few samples of it.
        for k in range(2, 6 if n < 100 else 5):
            s, c = frequency_point(rng, k), channels(rng, k)
            add(f"tf_sym/k{k}", lambda c=c, s=s: bv.eval_tf_symmetric(sys_, c, s),
                lambda c=c, s=s: ref.tf("symmetric", c, s), value)
        s3 = frequency_point(rng, 3)
        add("roc_symmetric/k3", lambda: bv.roc_margin(sys_, s3, "symmetric"),
            lambda: roc_margin("symmetric", s3, ABSCISSA))

        lag = 2.0 + rng.uniform(0.0, 1.0)
        for kind, k in (("regular", 2), ("triangular", 2), ("symmetric", 3)):
            s, c = frequency_point(rng, k), channels(rng, k)
            # The regular kind takes its inputs at the shifted arguments s_i - s_{i-1}.
            args = np.diff(s, prepend=0) if kind == "regular" else s
            add(f"output_{kind}",
                lambda c=c, s=s, kind=kind: bv.output_transform(
                    sys_, c, s, kind, lambda z: 1.0 / (complex(z) + lag)),
                lambda c=c, s=s, kind=kind, args=args: np.prod(1.0 / (args + lag))
                * ref.tf(kind, c, s))

        def kernel(key, kind, ts):
            chs = channels(rng, len(ts))
            add(key, lambda: getattr(bv, self.KERNELS[kind])(sys_, chs, ts),
                lambda: getattr(ref, f"{kind}_kernel")(chs, ts))

        for k in range(1, 5):
            kernel(f"kern_tri/k{k}", "triangular",
                   tuple(sorted(rng.uniform(0.1, 3.0, k), reverse=True)))
            kernel(f"kern_reg/k{k}", "regular", tuple(rng.uniform(0.1, 2.0, k)))
        a, b = sorted(rng.uniform(0.2, 2.5, 2), reverse=True)
        for label, ts in (("tied2", (a, a)), ("tied3", (a, a, b)), ("tied4", (a, b, b, b))):
            kernel(f"kern_tri/{label}", "triangular", ts)
        for label, ts in (("zero2", (0.0, a)), ("zero3", (0.0, b, a)), ("zero4", (b, 0.0, 0.0, a))):
            kernel(f"kern_reg/{label}", "regular", ts)
        for k in range(2, 5):
            kernel(f"kern_sym/k{k}", "symmetric", tuple(rng.uniform(0.1, 3.0, k)))

        for kind in ("regular", "triangular"):
            key = f"quad_{kind}/n={n}"
            out.append(Request(
                key, n, sys_,
                lambda kind=kind: bv.laplace_quadrature(sys_, [1, 2], kind, QUAD_S,
                                                        QUAD_T, QUAD_PANELS),
                lambda est, kind=kind, key=key: self._check_quad(
                    est, self.memo(key, lambda: ref.tf(kind, [1, 2], QUAD_S)), key)))
        out.append(Request(
            f"symmetry_probe/n={n}", n, sys_, lambda: bv.symmetry_probe(sys_, 3, 3, seed=self.seed),
            lambda dev: expect(dev <= TOL_PROBE, f"symmetry_probe n={n}: deviation {dev:.2e}")))
        return out

    @staticmethod
    def _check_quad(est, want, what):
        gap = float(np.max(np.abs(est.value - want)))
        expect(gap <= est.tail_bound + est.discretization_estimate,
               f"{what}: gap {gap:.2e} exceeds the reported tail bound plus "
               "discretization estimate")
        return close(est.value, want, TOL_QUAD, what)


# -- command line ----------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def _csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class Cli(Workload):
    """One `bivolt` process per request on freshly written n = 4/20/100 documents."""

    name = "cli"
    LAPLACE_S = "1+0.5i,0.8-1i"
    SIM_GRID = (0.0, 10.0, 0.02)

    def __init__(self, seed: int, workdir: str, root: str, warm: bool = False):
        super().__init__(seed, warm)
        self.workdir, self.root = workdir, root
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.systems, self.docs = {}, {}
        for n in self.sizes:
            sys_ = self.system(n, CLI, alpha_max=MILD, coupling=0.05, with_x0=True)
            self.systems[n] = sys_
            self.docs[n] = self._write(f"system_n{n}.json", {
                "n": n, "m": sys_.m, "p": sys_.p, "A": sys_.A.ravel().tolist(),
                "N": [Nj.ravel().tolist() for Nj in sys_.N], "B": sys_.B.ravel().tolist(),
                "C": sys_.C.ravel().tolist(), "x0": sys_.x0.tolist()})
        self.signal_doc = self._write("signal_step.json", {"kind": "step", "mu": list(STEP_MU)})
        # Sizes take turns, so a run that stops within a pass (run.py) leaves
        # out about as much of each size.
        self.jobs = [q for same in zip(*(self._jobs(n) for n in self.sizes)) for q in same]
        # Over every process this workload started.
        self.max_rss_kb = self.bytes_out = self.exit_nonzero = 0

    def _write(self, name, doc) -> str:
        path = os.path.join(self.workdir, ("warm_" if self.warm else "") + name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def requests(self, r):
        return self.jobs[:2] if self.warm else self.jobs

    def run(self, argv) -> CliResult:
        """Run one request as its own process and reap it with its resource usage."""
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(out_path, "w+", encoding="utf-8", newline="") as fo, \
                open(err_path, "w+", encoding="utf-8", newline="") as fe:
            proc = subprocess.Popen(
                [sys.executable, "-c", "from bivolt.cli import main; main()", *argv],
                stdout=fo, stderr=fe, env=self.env, cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            fo.seek(0)
            fe.seek(0)
            res = CliResult(proc.returncode, fo.read(), fe.read())
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        self.bytes_out += len(res.stdout.encode())
        self.exit_nonzero += res.code != 0
        return res

    def _jobs(self, n):
        sys_, doc, ref = self.systems[n], self.docs[n], self.ref(self.systems[n])
        rng = np.random.default_rng([self.seed, n, 31])
        out = []

        def add(key, argv, check):
            argv = tuple(argv)

            def checked(res: CliResult):
                if res.code != 0:
                    raise CheckFailed(f"{key} n={n} exited {res.code}: {res.stderr.strip()}")
                return check(res.stdout)

            # Each process loads its own copy of the system: a cache cannot carry over.
            out.append(Request(f"{key}/n={n}", n, None, lambda: self.run(argv), checked, argv))

        add("validate", ["validate", "--system", doc],
            lambda text: expect(text == f"ok: n={n} m=2 p=1\n", f"validate n={n}: {text!r}"))

        mu = [1.0, 0.5]
        times = sorted(rng.uniform(0.2, 3.0, 3))
        add("impulse", ["impulse", "--system", doc, "--mu", "1,0.5", "--times",
                        ",".join(_num(t) for t in times), "--orders", "3"],
            lambda text: self._check_impulse(text, sys_, ref, mu, times))

        for kind, key, ts in (("tri", "kernel_tri", tuple(sorted(rng.uniform(0.2, 2.5, 3),
                                                                   reverse=True))),
                              ("reg", "kernel_reg", (0.0,) + tuple(rng.uniform(0.2, 2.0, 2)))):
            chs = channels(rng, 3)
            add(key, ["kernel", "--system", doc, "--kind", kind, "--channels",
                      ",".join(map(str, chs)), "--t", ",".join(_num(t) for t in ts)],
                lambda text, kind=kind, chs=chs, ts=ts: self._check_kernel(
                    text, sys_, ref, kind, chs, ts))

        for kind, key, k in (("reg", "tf_reg", 2), ("sym", "tf_sym", 3)):
            s, chs = frequency_point(rng, k), channels(rng, k)
            add(key, ["tf", "--system", doc, "--kind", kind, "--channels",
                      ",".join(map(str, chs)), "--s", ",".join(_cplx(z) for z in s)],
                lambda text, kind=kind, chs=chs, s=s: self._check_tf(text, sys_, ref, kind, chs, s))

        t0, t1, dt = self.SIM_GRID
        add("simulate", ["simulate", "--system", doc, "--signal", self.signal_doc,
                         "--grid", f"{t0}:{t1}:{dt}", "--method", "both", "--orders", "2"],
            lambda text: self._check_simulate(text, n, sys_, ref))

        add("verify_laplace", ["verify", "laplace", "--system", doc, "--kind", "reg",
                               "--channels", "1,2", "--s", self.LAPLACE_S,
                               "--T", repr(QUAD_T), "--panels", str(QUAD_PANELS)],
            lambda text: self._check_laplace(text, n, sys_, ref))
        return out

    def _check_impulse(self, text, sys_, ref, mu, times):
        rows = _csv(text)
        got = np.array([[float(v) for v in row.values()] for row in rows])
        lib = self.memo(("impulse", id(sys_)), lambda: np.array(
            [[t, *bv.impulse_response(sys_, mu, t),
              *[bv.impulse_response_subsystem(sys_, mu, k, t)[0] for k in (1, 2, 3)]]
             for t in times]))
        close(got, lib, TOL_EXACT, "impulse CSV vs library")
        want = np.array([[*ref.impulse(mu, t), *[ref.impulse(mu, t, k)[0] for k in (1, 2, 3)]]
                         for t in times])
        return close(got[:, 1:], want, TOL_ALGEBRA, "impulse CSV vs reference")

    def _check_kernel(self, text, sys_, ref, kind, chs, ts):
        row = _csv(text)[0]
        got = np.array([float(row["y1"])])
        lib = self.memo(("kernel", kind, id(sys_)), lambda: (
            bv.eval_triangular if kind == "tri" else bv.eval_regular)(sys_, chs, ts))
        close(got, lib, TOL_EXACT, f"kernel {kind} CSV vs library")
        want = (ref.triangular_kernel if kind == "tri" else ref.regular_kernel)(chs, ts)
        return close(got, want, TOL_ALGEBRA, f"kernel {kind} CSV vs reference")

    def _check_tf(self, text, sys_, ref, kind, chs, s):
        row = _csv(text)[0]
        got = np.array([float(row["G1_re"]) + 1j * float(row["G1_im"])])
        full = {"reg": "regular", "sym": "symmetric"}[kind]
        fn = bv.eval_tf_regular if kind == "reg" else bv.eval_tf_symmetric
        lib = self.memo(("tf", kind, id(sys_)), lambda: fn(sys_, chs, s).value)
        close(got, lib, TOL_EXACT, f"tf {kind} CSV vs library")
        margin = float(row["roc_margin"])
        require(abs(margin - roc_margin(full, s, ABSCISSA)), TOL_ALGEBRA, f"tf {kind} roc_margin")
        return close(got, ref.tf(full, chs, s), TOL_ALGEBRA, f"tf {kind} CSV vs reference")

    def _check_simulate(self, text, n, sys_, ref):
        rows = _csv(text)
        cols = {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}
        t0, t1, dt = self.SIM_GRID

        def library():
            grid = bv.TimeGrid(t0, t1, dt)
            u = bv.step_signal(grid, mu=STEP_MU)
            return (bv.ode_direct(sys_, u, grid).values[:, 0],
                    bv.volterra_cascade(sys_, u, 2, grid).per_order[:, :, 0])
        direct, orders = self.memo(("simulate", n), library)
        close(cols["y1"], direct, TOL_EXACT, "simulate y1 vs library")
        close(np.stack([cols["y_k1"], cols["y_k2"]]), orders, TOL_EXACT,
              "simulate cascade vs library")
        want = self.memo(("simulate_ref", n), lambda: np.array(
            [ref.constant_input_output(STEP_MU, t)[0] for t in cols["t"]]))
        return close(cols["y1"], want, TOL_SIM, "simulate y1 vs constant-input solution")

    def _check_laplace(self, text, n, sys_, ref):
        row = _csv(text)[0]
        s = [complex(z.replace("i", "j")) for z in self.LAPLACE_S.split(",")]
        quad = np.array([float(row["quad1_re"]) + 1j * float(row["quad1_im"])])
        closed = np.array([float(row["closed1_re"]) + 1j * float(row["closed1_im"])])
        if row["within_bound"] != "1":
            raise CheckFailed(f"verify laplace n={n}: within_bound={row['within_bound']}")
        lib = self.memo(("laplace", n), lambda: bv.laplace_quadrature(
            sys_, [1, 2], "regular", s, QUAD_T, QUAD_PANELS).value)
        close(quad, lib, TOL_EXACT, "verify laplace CSV vs library")
        want = ref.tf("regular", [1, 2], s)
        close(closed, want, TOL_ALGEBRA, "verify laplace closed form vs reference")
        return close(quad, want, TOL_QUAD, "verify laplace quadrature vs reference")


def _num(x) -> str:
    return repr(float(x))


def _cplx(z: complex) -> str:
    return f"{_num(z.real)}{'+' if z.imag >= 0 else '-'}{_num(abs(z.imag))}i"


WORKLOADS = {w.name: w for w in (SimForced, SimPulse, Spectral, Cli)}
