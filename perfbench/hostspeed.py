"""Host speed, measured beside the work, to scale timings to a reference host.

On a shared 2-vCPU VM the same pure-Python loop runs up to twice as fast in
one minute as in another, as other tenants' load comes and goes, so raw times
of runs a few minutes apart disagree by more than any useful regression
bound.  The benchmark therefore times a fixed probe between requests and
divides each pass's times by the pass's slowdown (``slowdown``).  The probe
is pure Python (dict updates, big-integer shifts and divisions), like the
program, and is part of the benchmark, so it is the same on every commit: a
change to the program moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import gc
import statistics
import time

# Seconds of one probe on the reference host: a 2-vCPU x86 VM (Xeon,
# 2.1 GHz nominal), Python 3.11, at its typical speed.
REFERENCE_S = 0.0005


def _probe_work():
    acc = 0
    table = {}
    for i in range(1500):
        key = (i * 7919) % 257
        table[key] = table.get(key, 0) + i
        acc += (i << 40) // (key + 1)
    return acc


def probe() -> float:
    """Seconds of one fixed probe.  The cyclic collector is paused so that
    the size of the program's heap does not change the probe's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _probe_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdown(samples) -> float:
    """How much slower than the reference host the probes ran: their mean
    over ``REFERENCE_S``, after dropping the fastest and slowest tenth.  The
    host switches between a fast and a slow state within seconds; a mean
    weights each state by the share of the probes, and so of the work
    between them, that ran in it."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut]) / REFERENCE_S
