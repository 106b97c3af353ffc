"""Timing harness shared by the scripts in this directory.

Repeats go round-robin over the cases, so a drift in machine speed touches
every case alike; each case's quartiles are merged into a JSON file under a
label, so one file can hold the runs of two versions.
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np


def round_robin(cases: dict, repeats: int) -> dict:
    """Seconds of call(prepare()) per key of cases (key -> (prepare, call)).

    Each case is called once untimed first; only call is timed.
    """
    for prepare, call in cases.values():
        call(prepare())
    times = {key: [] for key in cases}
    for _ in range(repeats):
        for key, (prepare, call) in cases.items():
            arg = prepare()
            t0 = time.perf_counter()
            call(arg)
            times[key].append(time.perf_counter() - t0)
    return times


def record(path: str, label: str, run: dict, times: dict) -> None:
    """Merge run, with each case's quartiles in ms and the machine, into the
    JSON file at path under label, and print each case's median."""
    run = {**run, "repeats": len(next(iter(times.values()))),
           "machine": platform.machine(), "python": platform.python_version(),
           "numpy": np.__version__,
           "ms": {key: dict(zip(("q1", "median", "q3"),
                                (round(1e3 * q, 3) for q in np.percentile(t, [25, 50, 75]))))
                  for key, t in times.items()}}
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
