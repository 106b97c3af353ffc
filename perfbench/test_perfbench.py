"""Tests of the benchmark itself: every check rejects a result perturbed by a
relative 1e-6, and the tracer nests spans and restores what it wraps.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bivolt  # noqa: E402
from oracles import CheckFailed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Cli, CliResult, SimForced, SimPulse, Spectral  # noqa: E402

REL = 1e-6
_FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def perturb(res):
    """The same result with every floating-point value scaled by 1 + REL."""
    if isinstance(res, np.ndarray):
        return res * (1 + REL)
    if isinstance(res, float):
        return res * (1 + REL)
    if isinstance(res, CliResult):
        text = _FLOAT.sub(lambda m: repr(float(m.group()) * (1 + REL)), res.stdout)
        return dataclasses.replace(res, stdout=text)
    for field in ("values", "per_order", "value", "errors"):
        if hasattr(res, field):
            return dataclasses.replace(res, **{field: getattr(res, field) * (1 + REL)})
    raise TypeError(f"no perturbation for {type(res).__name__}")


PASS_FAIL_ONLY = ("validate/", "symmetry_probe/")


def assert_checks_reject(requests):
    checked = 0
    for req in requests:
        res = req.call()
        if req.check(res) is None and req.key.startswith(PASS_FAIL_ONLY):
            continue
        with pytest.raises(CheckFailed):
            req.check(perturb(res))
        checked += 1
    assert checked == len([q for q in requests if not q.key.startswith(PASS_FAIL_ONLY)])


@pytest.mark.parametrize("workload", [SimPulse, Spectral])
def test_in_process_checks_reject_perturbed_results(workload):
    assert_checks_reject(workload(seed=3, warm=True).requests(0))


@pytest.mark.parametrize("kind", SimForced.KINDS)
def test_forced_checks_reject_perturbed_results(kind):
    """Under sine and sampled input ode_direct is checked through the cascade."""
    direct, cascade = [q for q in SimForced(seed=3, warm=True).requests(0)
                       if f"/{kind}/" in q.key]
    y, total = direct.call(), cascade.call()
    if kind == "step":
        assert_checks_reject([direct, cascade])
        return
    direct.check(y)
    cascade.check(total)
    with pytest.raises(CheckFailed):
        cascade.check(perturb(total))
    direct.check(perturb(y))
    with pytest.raises(CheckFailed):
        cascade.check(total)


def test_cli_checks_reject_perturbed_output(tmp_path):
    assert_checks_reject(Cli(seed=3, workdir=str(tmp_path), root=ROOT, warm=True).jobs)


def test_pass_fail_checks_reject_bad_results(tmp_path):
    w = Spectral(seed=3, warm=True)
    probe = next(q for q in w.requests(0) if q.key.startswith("symmetry_probe/"))
    probe.check(probe.call())
    with pytest.raises(CheckFailed):
        probe.check(REL)
    cli = Cli(seed=3, workdir=str(tmp_path), root=ROOT, warm=True)
    validate = next(q for q in cli.jobs if q.key.startswith("validate/"))
    res = validate.call()
    validate.check(res)
    with pytest.raises(CheckFailed):
        validate.check(dataclasses.replace(res, code=1))


def test_tracer_nests_spans_and_restores_functions():
    w = Spectral(seed=3, warm=True)
    req = next(q for q in w.requests(0) if q.key.startswith("kern_tri/k3"))
    original = bivolt.kernels.expm
    tracer = Tracer()
    tracer.install()
    try:
        assert bivolt.kernels.expm is not original
        assert bivolt.linalg.expm is bivolt.kernels.expm is bivolt.expm
        req.check(tracer.run_request(0, req.key, req.call))
    finally:
        tracer.uninstall()
    assert bivolt.kernels.expm is original
    by_id = {s[0]: s for s in tracer.spans}
    root = next(s for s in tracer.spans if s[1] == -1)
    expm = [s for s in tracer.spans if s[2] == "linalg.expm"]
    assert len(expm) == 3 and all(by_id[s[1]][2] == "kernels.eval_triangular" for s in expm)
    assert sum(tracer.self_s.values()) == pytest.approx(root[4] - root[3], rel=1e-9)
    m = tracer.layer_metrics(1)
    assert m["kernels.eval.calls"] == 1 and m["kernels.expm_per_eval"] == 3


def test_tracer_counts_steps_and_free_steps():
    w = SimPulse(seed=3, warm=True)
    req = next(q for q in w.requests(0) if q.key.startswith("ode_direct/"))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_request(0, req.key, req.call)
    finally:
        tracer.uninstall()
    steps = w.grid.nodes - 1
    assert tracer.counts["steps"] == steps
    # The pulse covers 20 steps and its trailing ramp one more.
    assert tracer.counts["free_steps"] == steps - 21


def test_speed_probe_scales_jobs_by_neighbouring_references(monkeypatch):
    import speed
    clock = {"t": 0.0, "ref": 1e-3}

    def reference():
        clock["t"] += clock["ref"]
        return clock["ref"]

    monkeypatch.setattr(speed.time, "perf_counter", lambda: clock["t"])
    probe = speed.SpeedProbe(reference=reference, nominal=5e-4)
    spans = []
    # Each request is worth 200 references at the speed around it; the last
    # one was interrupted and is left out of the job's time.
    for ref, took in ((1e-3, 0.2), (2e-3, 0.4), (1e-3, 0.2), (1e-3, 5.0)):
        clock["ref"] = ref
        probe.maybe_sample()
        spans.append((clock["t"], took))
        clock["t"] += took
    probe.sample()
    assert len(probe.ends) == 5
    assert probe.normalize(spans[:3]) == pytest.approx(200 * 5e-4, rel=0.3)
    assert probe.normalize(spans) == pytest.approx(probe.normalize(spans[:3]), rel=1e-12)
