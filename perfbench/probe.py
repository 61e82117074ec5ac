"""A fixed reference kernel timed between the operations of a pass.

This host is a few vCPUs of a shared machine.  Other tenants slow the same
fixed work by up to 1.7 times, for stretches from milliseconds to minutes, and
that shows in process CPU time as much as in wall time.  Neither the median nor
the minimum over passes removes it: a run can fall entirely in a slow stretch.

So the benchmark runs on one CPU (run.py pins it) and times this probe, which
uses none of qfrelay, before the first operation of a pass and after each
operation.  The probe does the same kinds of work as the program (many tiny
numpy calls, one 32x128 array reduction, Python function calls), so contention
slows it much as it slows the operation beside it.  An operation's time is
scaled by NOMINAL_S over the mean of the two probes around it; the pass time
is the sum.  NOMINAL_S is about the probe's time here when the CPU is not
contended (80-90 us), so the scaled time estimates the time on an idle host.
A change to qfrelay moves the operations and not the probe.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 1e-4

_Q0 = np.full((2, 3), 0.5) + np.arange(6).reshape(2, 3) * 0.01
_W = np.arange(1.0, 7.0).reshape(2, 3)
_B = np.random.default_rng(0).random((32, 128)) + 0.1


def _add(x, y):
    return x * 0.5 + y


def _kernel() -> float:
    t0 = time.perf_counter()
    q = _Q0
    for _ in range(10):
        p = q * _W
        q = p / p.sum(axis=0)
        float(np.log(q).sum())
    y = _B / _B.sum(axis=0)
    float((y * np.log(y)).sum())
    s = 0.0
    for i in range(150):
        s = _add(s, i)
    return time.perf_counter() - t0


def probe(runs: int = 3) -> float:
    """Seconds the reference kernel takes: the median of `runs` runs, so that
    one run caught by a millisecond stall does not set the scale."""
    return statistics.median(_kernel() for _ in range(runs))


def normalised(op_s, probe_s) -> float:
    """Sum of op_s[i] scaled by NOMINAL_S over the mean of probe_s[i] and
    probe_s[i + 1], the probes just before and just after operation i."""
    return sum(t * NOMINAL_S / (0.5 * (a + b))
               for t, a, b in zip(op_s, probe_s, probe_s[1:]))
