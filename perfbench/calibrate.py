"""Host-speed correction for the end-to-end times.

The benchmark runs on shared hosts where the speed of one core swings by
up to 1.7x for tens of seconds at a time; CPU time swings with wall time,
so neither is steady. So the host's speed is sampled while each timed
operation runs: a fixed pure-Python probe loop runs just before the
operation, just after it and, from a SIGALRM interval timer, every
SAMPLE_S seconds during it. The corrected time is the operation's time,
less the time spent in the probes, divided by the mean probe time and
multiplied by the probe's nominal time: the operation's duration on a
host where the probe takes its nominal time. The probe is benchmark
code, so no change to mge can move it.

The probe is written in the style of the gadgets: a SplitMix64 draw
through a method on a slotted object, list comprehensions over shares,
XOR loops, dict updates. perfbench/README.md gives the figures.
"""

from __future__ import annotations

import signal
import statistics
import time

SAMPLE_S = 0.02
NOMINAL_S = 0.0005   # about the probe's time on the host of the README figures
_M64 = (1 << 64) - 1


class _Tape:
    __slots__ = ("s",)

    def __init__(self):
        self.s = 1

    def draw(self):
        self.s = (self.s + 0x9E3779B97F4A7C15) & _M64
        z = ((self.s ^ (self.s >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        return z >> 56


def _step(tape, x, y):
    r = tape.draw()
    out = [a ^ (b & r) for a, b in zip(x, y)]
    for i in range(len(out)):
        out[i] ^= r
    return out


def probe_s() -> float:
    """Seconds taken by one pass of the probe."""
    t0 = time.perf_counter()
    tape = _Tape()
    x, y, acc = [1, 2, 3, 4], [5, 6, 7, 8], {}
    for i in range(250):
        x = _step(tape, x, y)
        acc[i & 15] = acc.get(i & 15, 0) ^ x[0]
    return time.perf_counter() - t0


class _Sampler:
    """SIGALRM handler: runs the probe, keeps its time and the time spent."""

    def __init__(self):
        self.on = False
        self.times = []
        self.spent = 0.0

    def __call__(self, signum, frame):
        if not self.on:
            return
        t0 = time.perf_counter()
        self.times.append(probe_s())
        self.spent += time.perf_counter() - t0


_SAMPLER = _Sampler()


def measure(fn, *args, **kwargs):
    """Run fn once: (result, raw seconds, corrected seconds).

    Raw seconds exclude the probes that ran during fn. A traced pass
    still counts them in the span they interrupted.
    """
    s = _SAMPLER
    s.times, s.spent = [probe_s()], 0.0
    old = signal.signal(signal.SIGALRM, s)
    s.on = True
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    finally:
        raw = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        s.on = False
        signal.signal(signal.SIGALRM, old)
    raw -= s.spent
    s.times.append(probe_s())
    return out, raw, raw * NOMINAL_S / statistics.fmean(s.times)
