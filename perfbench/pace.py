"""Host-speed probes, so that latencies measured on a shared host compare.

On a small shared VM the speed of the same code drifts by a factor of up to
two, both in plateaus that last minutes and in switches within a second
(neighbours on the host's cores and caches; no steal time is reported).
Raw wall times of two runs minutes apart therefore do not compare.  The
benchmark measures the host's speed with a fixed kernel: a short pure-Python
function that never touches glsmx and does the kinds of work glsmx's hot
layers do (Fraction arithmetic, dicts keyed by small tuples, sorting tuples),
so that the two slow down together.

`Meter` brackets one request and times the kernel a few times right before
it, a few times right after it, and every `INTERVAL_S` while it runs, from a SIGALRM handler in
the same thread (no second thread or process).  The handler's own time is
taken out of the request's wall time.  The request's normalised time is

    raw seconds * mean over the samples of (REFERENCE_KERNEL_S / sample)

that is, its time on a host where one kernel call takes REFERENCE_KERNEL_S.
The mean of inverse sample times is the host's mean speed over the request,
which is what stretched it.  Raw wall times are kept in each run's record.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction as F

# one kernel call on the reference host (2-core VM, Python 3.11) at its
# usual fast speed; a constant, so normalised times of two commits compare
REFERENCE_KERNEL_S = 0.0002
INTERVAL_S = 0.01
PROBE_CALLS = 5


def _kernel():
    acc = {}
    for i in range(1, 40):
        key = (i % 7, i % 3)
        acc[key] = acc.get(key, F(0)) + F(i % 11 + 1, i % 13 + 2) * F(3, i % 5 + 1)
    rows = sorted((k[1], k[0], v) for k, v in acc.items())
    return sum(v for _, _, v in rows)


def _timed_kernel():
    """(start, end) of one kernel call.  The garbage collector is off
    meanwhile, so the size of the benchmark's heap does not show in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return t0, time.perf_counter()
    finally:
        if enabled:
            gc.enable()


def probe():
    """Times of a few kernel calls in a row: the host's speed right now."""
    times = []
    for _ in range(PROBE_CALLS):
        t0, t1 = _timed_kernel()
        times.append(t1 - t0)
    return times


def normalise(raw, samples):
    """raw seconds at the host's mean speed over the kernel samples."""
    return raw * statistics.fmean(REFERENCE_KERNEL_S / s for s in samples)


class Meter:
    """Times calls while sampling the host's speed; see the module doc.
    With sample=False only the probes before and after a call are taken, so
    that nothing runs inside it (the traced run, whose layer times would
    otherwise hold the handler's)."""

    def __init__(self, sample=True):
        self.sample = sample
        self._calls = []  # (entry, kernel start, kernel end, exit) per alarm

    def _on_alarm(self, signum, frame):
        entry = time.perf_counter()
        t0, t1 = _timed_kernel()
        self._calls.append((entry, t0, t1, time.perf_counter()))

    def start(self):
        """Probe, then sample every INTERVAL_S until `disarm`."""
        self._before = probe()
        self._calls = []
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def disarm(self):
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def result(self, t0, t1):
        """After `disarm`: probe again and return (raw seconds without the
        handler's time, normalised seconds, kernel samples) of the request
        that ran from perf_counter reading t0 to t1."""
        inside = [c for c in self._calls if t0 <= c[0] and c[3] <= t1]
        raw = t1 - t0 - sum(out - entry for entry, _, _, out in inside)
        samples = self._before + [k1 - k0 for _, k0, k1, _ in inside] + probe()
        return raw, normalise(raw, samples), samples


def scale_one(measure):
    """Run `measure()` (which returns seconds) between two probes and return
    its normalised time."""
    before = probe()
    raw = measure()
    return normalise(raw, before + probe())
