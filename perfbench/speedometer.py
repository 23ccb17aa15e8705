"""How fast the CPU ran while a worker ran, sampled from inside the worker.

A shared host, such as the 2-vCPU virtual machine the baseline in README.md
was measured on, may give each vCPU only part of a core.  There a vCPU
alternates, every few seconds, between full speed and about half speed, and
the two vCPUs do so independently.  CPU time equals wall time, so neither
clock sees it; the wall time of one cold `grid` worker ranged over 5.1-9.6 s
at fixed work.  A probe run before and after a worker misses the phases in
between; only a probe run during the worker sees them.

While it is started, a SIGALRM handler runs a fixed probe (pure-Python
`Fraction` products in dicts, the kind of work qmodalg does) every interval
of wall time and records how long it took.  `corrected_s` turns a wall time
and the probes made during it into the time the same work takes at
FULL_SPEED_PROBE_S per probe: the probes' own time is removed and the rest is
scaled by the mean speed the probes saw.  FULL_SPEED_PROBE_S is a fixed
reference, the probe's time at full speed on the machine above; a quantile of
a run's own probes would not do, since a slow phase can outlast a run.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

SETUP_INTERVAL = 0.004  # set-up is short; probe often enough to see its speed
VERDICT_INTERVAL = 0.01
FULL_SPEED_PROBE_S = 0.00045

_TERMS = {e: Fraction(7 * e + 3, e * e + 5) for e in range(-3, 4)}
_samples = []
_busy = False


def probe():
    """About 0.45 ms of Laurent-polynomial products with Fraction coefficients."""
    acc = {0: Fraction(1)}
    for _ in range(3):
        out = {}
        for ea, ca in acc.items():
            for eb, cb in _TERMS.items():
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
        acc = out
    return acc


def _tick(signum, frame):
    global _busy
    if _busy:  # a tick that arrives inside the probe is dropped
        return
    _busy = True
    t = time.perf_counter()
    probe()
    _samples.append(time.perf_counter() - t)
    _busy = False


def start(interval):
    """Probe every `interval` seconds of wall time from now on."""
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, interval, interval)


def take():
    """The probe times recorded since the last take(); probing goes on."""
    out = _samples[:]
    del _samples[:]
    return out


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    return take()


def corrected_s(wall, samples):
    """`wall` seconds, during which `samples` were probed, at full speed."""
    if not samples:
        return wall
    speed = statistics.fmean(FULL_SPEED_PROBE_S / s for s in samples)
    return (wall - sum(samples)) * speed
