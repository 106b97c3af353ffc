"""Outside-in span recorder for the traced run.

`Tracer.install()` replaces every public function of the bivolt modules by a
wrapper at each place the function is bound (for example bivolt.kernels.expm
as well as bivolt.linalg.expm and bivolt.expm), so calls between modules
nest and every span gets a self time. Nothing under src/ changes. Names that
a module does not have are skipped. Spans stay in memory until `write()`.

Self time is attributed at module boundaries: a call into the module its
caller is already in (lu_solve under resolvent_apply, expm under phi1_apply)
adds its self time to the outermost function of that run of same-module
calls, which is the boundary a caller of the module sees. Call counts are kept
for every function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

MODULES = ("linalg", "system", "kernels", "transfer", "response", "verify", "cli")

ENGINES = ("response.ode_direct", "response.volterra_cascade")
CLOSED_FORM = ("response.impulse_response", "response.impulse_response_subsystem",
               "response.nascent_response")
KERNEL_EVALS = ("kernels.eval_triangular", "kernels.eval_regular",
                "kernels.eval_symmetric")
PREP = ("system.validate", "system.fold_implicit", "system.effective_matrices")
QUADRATURE = ("verify.laplace_quadrature", "verify.suggest_truncation")
PROBES = ("verify.symmetry_probe", "verify.phi1_bounds_probe")


class _Frame:
    __slots__ = ("id", "name", "module", "group", "child")

    def __init__(self, id_, name, module, group):
        self.id, self.name, self.module, self.group = id_, name, module, group
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []     # (id, parent id, name, start, end, request)
        self.stack: list[_Frame] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.request = -1
        self._next = 0
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        import bivolt
        modules = [bivolt] + [importlib.import_module(f"bivolt.{m}") for m in MODULES]
        public = {}
        for mod in modules[1:]:
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn):
                    public[id(fn)] = fn
        wrappers = {}
        pole_hit = getattr(importlib.import_module("bivolt.linalg"), "PoleHitError", ())
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in public and public[id(value)] is value:
                    if id(value) not in wrappers:
                        name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                        wrappers[id(value)] = self._wrap(value, name, pole_hit)
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, fn, name, pole_hit):
        module = name.split(".", 1)[0]
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            group = parent.group if parent is not None and parent.module == module else name
            frame = tracer._push(name, module, group)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except pole_hit:
                tracer.counts["pole_hits"] += 1
                raise
            finally:
                tracer._pop(frame, parent, t0, time.perf_counter())
        return wrapper

    def _push(self, name, module, group) -> _Frame:
        frame = _Frame(self._next, name, module, group)
        self._next += 1
        self.stack.append(frame)
        return frame

    def _pop(self, frame, parent, t0, t1) -> None:
        self.stack.pop()
        dur = t1 - t0
        self.self_s[frame.group] += dur - frame.child
        self.calls[frame.name] += 1
        if parent is not None:
            parent.child += dur
        self.spans.append((frame.id, parent.id if parent is not None else -1,
                           frame.name, t0, t1, self.request))

    # -- requests ---------------------------------------------------------------

    def run_request(self, index: int, key: str, call):
        """Run one request under a root span named after its job."""
        self.request = index
        frame = self._push(f"request.{key}", "request", "request")
        self.active = True
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            t1 = time.perf_counter()
            self.active = False
            self._pop(frame, None, t0, t1)

    def inside(self, name: str) -> bool:
        return any(f.name == name for f in self.stack)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(("id", "parent", "name", "start", "end",
                                              "request"), span))) + "\n")

    # -- per-layer metrics --------------------------------------------------------

    def layer_metrics(self, rounds: float) -> dict:
        """Per-layer figures per pass of the job list (rounds = traced passes)."""
        c, s, k = self.calls, self.self_s, self.counts
        per = 1.0 / max(rounds, 1)

        def calls(*names):
            return sum(c[x] for x in names)

        def self_time(*names):
            return sum(s[x] for x in names)

        engine_s = self_time(*ENGINES)
        sym_calls = c["transfer.eval_tf_symmetric"]
        evals = calls(*KERNEL_EVALS)
        m = {
            "response.ode_direct.self_s": s["response.ode_direct"] * per,
            "response.cascade.self_s": s["response.volterra_cascade"] * per,
            "response.steps": k["steps"] * per,
            "response.steps_per_s": k["steps"] / engine_s if engine_s else 0.0,
            "response.free_step_frac": k["free_steps"] / k["steps"] if k["steps"] else 0.0,
            "response.closed_form.calls": calls(*CLOSED_FORM) * per,
            "response.closed_form.self_s": self_time(*CLOSED_FORM) * per,
            "transfer.tf_reg.self_s": s["transfer.eval_tf_regular"] * per,
            "transfer.tf_tri.self_s": s["transfer.eval_tf_triangular"] * per,
            "transfer.tf_sym.self_s": s["transfer.eval_tf_symmetric"] * per,
            "transfer.tf_sym.solves_per_eval": k["sym_solves"] / sym_calls if sym_calls else 0.0,
            "transfer.roc_margin.self_s": s["transfer.roc_margin"] * per,
            "linalg.resolvent_apply.calls": c["linalg.resolvent_apply"] * per,
            "linalg.resolvent_apply.self_s": s["linalg.resolvent_apply"] * per,
            "linalg.expm.calls": c["linalg.expm"] * per,
            "linalg.expm.self_s": s["linalg.expm"] * per,
            "linalg.phi1_apply.calls": c["linalg.phi1_apply"] * per,
            "linalg.phi1_apply.self_s": s["linalg.phi1_apply"] * per,
            "linalg.pole_hits": k["pole_hits"] * per,
            "kernels.eval.calls": evals * per,
            "kernels.eval.self_s": self_time(*KERNEL_EVALS) * per,
            "kernels.expm_per_eval": k["kernel_expm"] / evals if evals else 0.0,
            "verify.quadrature.self_s": self_time(*QUADRATURE) * per,
            "verify.probe.self_s": self_time(*PROBES) * per,
            "system.prep.calls": calls(*PREP) * per,
            "system.prep.self_s": self_time(*PREP) * per,
        }
        total = sum(s.values())
        for module in MODULES + ("request",):
            share = sum(v for g, v in s.items() if g.split(".", 1)[0] == module)
            m[f"self_share.{module}"] = share / total if total else 0.0
        return m


def _count_steps(tracer: Tracer, args, kwargs) -> None:
    # (sys, u, grid) for ode_direct, (sys, u, K, grid) for volterra_cascade
    u = kwargs.get("u", args[1] if len(args) > 1 else None)
    grid = kwargs.get("grid", args[-1] if len(args) > 2 else None)
    try:
        times = grid.times()
        node = ~(u.at_many(times) != 0.0).any(axis=1)
        mid = ~(u.at_many(times[:-1] + 0.5 * grid.dt) != 0.0).any(axis=1)
    except (AttributeError, ValueError):
        return  # the call itself will reject these arguments
    tracer.counts["steps"] += times.size - 1
    tracer.counts["free_steps"] += int((node[:-1] & mid & node[1:]).sum())


def _count_sym_solve(tracer: Tracer, args, kwargs) -> None:
    if tracer.inside("transfer.eval_tf_symmetric"):
        tracer.counts["sym_solves"] += 1


def _count_kernel_expm(tracer: Tracer, args, kwargs) -> None:
    if any(f.name in KERNEL_EVALS for f in tracer.stack):
        tracer.counts["kernel_expm"] += 1


_HOOKS = {
    "response.ode_direct": _count_steps,
    "response.volterra_cascade": _count_steps,
    "linalg.resolvent_apply": _count_sym_solve,
    "linalg.expm": _count_kernel_expm,
}
