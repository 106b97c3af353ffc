"""Timing harness shared by the scripts in this directory.

Repeats go round-robin over the cases, in alternating directions, so a drift
in machine speed touches every case alike; each case's quartiles are merged
into a JSON file under a label, so one file can hold the runs of two
versions. load_version imports a second copy of bivolt beside the first, so
one process can time two versions call for call; paired_ratios gives the
quartiles of their time ratios over each two rounds, which a drift between
processes does not touch.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import sys
import time

import numpy as np


def round_robin(cases: dict, repeats: int) -> dict:
    """Seconds of call(prepare()) per key of cases (key -> (prepare, call)).

    Each case is called once untimed first; only call is timed. Its result
    is freed after the clock is read, so that a call is not charged for
    freeing a large result.
    """
    for prepare, call in cases.values():
        call(prepare())
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


def load_version(src: str, name: str):
    """The bivolt package in the directory src, imported as the package name."""
    pkg = os.path.join(src, "bivolt")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


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


def record(path: str, label: str, run: dict, times: dict) -> None:
    """Merge run, with each case's quartiles in ms and the machine, into the
    JSON file at path under label, and print each case's median."""
    run = {**run, "repeats": len(next(iter(times.values()))),
           "machine": platform.machine(), "python": platform.python_version(),
           "numpy": np.__version__,
           "ms": {key: quartiles(t, 1e3) for key, t in times.items()}}
    results = {}
    if os.path.exists(path):
        with open(path) as f:
            results = json.load(f)
    results[label] = run
    with open(path, "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
        f.write("\n")
    width = max(map(len, times))
    for key, t in run["ms"].items():
        print(f"{key:{width}s} {t['median']:9.3f} ms")
