"""Machine-speed references: the times the benchmark reports are scaled by them.

The benchmark runs on shared machines whose speed for this kind of work is
bimodal: it switches between a fast and a slow state, about half as fast, on
timescales of tens to hundreds of milliseconds, and the share of time spent
in each drifts over minutes. Raw times of the same code therefore spread by
30 % and more between runs.

A run times a short fixed reference between requests, in bursts that take a
fixed share of the run's time, and reports each job in seconds at the
reference's nominal speed: the job's total time over the run, divided by the
total of the mean references taken next to its requests, times the nominal
reference time (`SpeedProbe.normalize`). Sums rather than medians are used
on both sides because a short reference sees one state while a long request
averages over several; only means of the two agree whatever the share of
slow time. A short request and its neighbouring references usually see the
same state, so pairing them locally also cancels much of the switching.

The reference calls no bivolt code, so a change to bivolt cannot move it.
Requests that are processes (the cli workload) are paired with the same
in-process reference, run by the parent between them.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Reference time in the fast state of a 2-vCPU x86-64 virtual machine with
# one OpenBLAS thread; it only sets the scale of the reported figures.
NOMINAL_S = 6e-4
# A burst of references starts at most this often, and lasts this share of
# the time since the previous one.
INTERVAL_S = 0.02
SHARE = 0.1
# A request whose time over its neighbouring references is off its job's
# median by more than this factor, either way, was interrupted or had an
# interrupted reference (a page-cache miss, another tenant's burst), and is
# left out of the sums; the fast and slow states are within a factor of 2.5.
HICCUP = 4.0


class ReferenceKernel:
    """Fixed numpy work whose duration measures the machine's speed now.

    Half of it is a Python loop of n = 100 matrix-vector products, as in an
    RK4 step; half is rank-1 updates of a complex n = 100 matrix, as in an
    elimination written in numpy. Between the machine's fast and slow states
    the ratio of a bivolt request's time to this pair's moved by 1-12 %,
    where against a loop of small products alone the n = 100 requests moved
    by 10-15 %. The large arrays are allocated once: with a fresh 160 kB
    array in every pass, the same pass took twice as long in some processes
    as in others.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.M = rng.standard_normal((100, 100)) / 10
        self.K0 = (rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
                   + 20 * np.eye(100))
        self.K = np.empty_like(self.K0)
        self.outer = np.empty_like(self.K0)

    def __call__(self) -> float:
        """Seconds one pass takes now."""
        t0 = time.perf_counter()
        x = np.ones(100)
        for _ in range(40):
            x = x + 0.01 * (self.M @ x)
        K = self.K
        np.copyto(K, self.K0)
        for j in range(4):
            K[j + 1:, j] /= K[j, j]
            rank1 = self.outer[j + 1:, j + 1:]
            np.multiply.outer(K[j + 1:, j], K[j, j + 1:], out=rank1)
            K[j + 1:, j + 1:] -= rank1
        return time.perf_counter() - t0


class SpeedProbe:
    """Bursts of reference timings, at most one per INTERVAL_S of a run.

    A burst lasts SHARE of the time since the previous one, and at least one
    reference, so a long request gets a proportionally long look at the
    machine's speed beside it. Call `maybe_sample()` before every request and
    `sample()` after the last, so every request has a burst on each side.

    Each burst first runs one untimed reference: the first reference after a
    request runs 15-25 % slower in caches the request filled, by an amount
    that depends on the request.
    """

    def __init__(self, reference=None, nominal: float = NOMINAL_S):
        self.reference = reference or ReferenceKernel()
        self.nominal = nominal
        self.samples: list[float] = []   # duration of every reference
        self.ends: list[float] = []      # when each burst ended
        self._sums = [0.0]               # running totals of reference seconds
        self._counts = [0]               # and of references, burst by burst
        self._last = float("-inf")

    def burst(self, seconds: float) -> list[float]:
        """References back to back for about `seconds`, at least one; their durations."""
        first, end = len(self.samples), time.perf_counter() + seconds
        self.reference()
        while True:
            self.samples.append(self.reference())
            self._last = time.perf_counter()
            if self._last >= end:
                break
        taken = self.samples[first:]
        self.ends.append(self._last)
        self._sums.append(self._sums[-1] + sum(taken))
        self._counts.append(self._counts[-1] + len(taken))
        return taken

    def sample(self) -> None:
        self.burst(0.0)

    def maybe_sample(self) -> None:
        gap = time.perf_counter() - self._last
        if gap >= INTERVAL_S:
            self.burst(SHARE * gap if self.samples else 0.0)

    def nominal_mean(self, times, refs) -> float:
        """Mean of `times` at nominal speed, the speed taken from `refs` around them."""
        mid = statistics.median(refs)
        kept = [r for r in refs if mid / HICCUP <= r <= mid * HICCUP]
        return self.nominal * statistics.fmean(times) / statistics.fmean(kept)

    def around(self, start: float, end: float) -> float:
        """Mean reference over the bursts within one request length of a request.

        The last burst before it and the first after it always count. A long
        request averages over many switches of machine speed, which the bursts
        at its two ends alone would sample too thinly.
        """
        span = end - start
        lo = min(bisect.bisect_left(self.ends, start - span),
                 bisect.bisect_right(self.ends, start) - 1)
        hi = max(bisect.bisect_left(self.ends, end),
                 bisect.bisect_right(self.ends, end + span) - 1)
        lo, hi = max(lo, 0), min(hi, len(self.ends) - 1)
        if hi < lo:
            raise RuntimeError("no reference timing next to a request")
        count = self._counts[hi + 1] - self._counts[lo]
        return (self._sums[hi + 1] - self._sums[lo]) / count

    def normalize(self, spans) -> float:
        """A job's mean request time at nominal speed from its (start, seconds) spans."""
        refs = [self.around(t0, t0 + dt) for t0, dt in spans]
        ratios = [dt / r for (_, dt), r in zip(spans, refs)]
        mid = statistics.median(ratios)
        kept = [(dt, r) for (_, dt), r, q in zip(spans, refs, ratios)
                if mid / HICCUP <= q <= mid * HICCUP]
        return self.nominal * sum(dt for dt, _ in kept) / sum(r for _, r in kept)
