"""A clock in reference seconds: elapsed time corrected for the machine's
own speed at the moment.

On a shared host the speed of one core drifts by a third or more over tens
of seconds, whatever runs on it, so raw pass times of the same code spread
more between runs than a regression worth catching.  ``RefClock`` samples
that speed while the work runs: every ``INTERVAL_S`` seconds a SIGALRM
handler runs ``loop_seconds()``, a fixed pure-Python loop that shares no
code with invsemi, and each stretch of work between two samples counts as
its raw duration times ``REF_LOOP_S`` over the median of the last
``WINDOW`` loop times (a median, so that a sample the scheduler happened to
interrupt does not count).  A reference second is therefore the time the
work would take on a machine where the loop takes ``REF_LOOP_S``.  The
time spent in the loop itself is left out, and so is any time before
``start``.

The loop composes small partial maps held in lists and hashes, sorts and
counts the results, much as invsemi's own code does.  A contended core
slows such code more than a tight integer loop: on a 2-vCPU Xeon VM, over
200 s in which ``search_open`` items slowed 1.5-fold, correcting by a loop
of integer arithmetic still left about a third of the slow-down (in log
terms), correcting by this loop under a tenth.

Python runs the handler between bytecodes of the main thread, so a long
call into numpy delays a sample but is still counted, at the speed
measured at its start.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
from time import perf_counter

# About the loop's median time on a 2-vCPU Intel Xeon VM of a shared host.
REF_LOOP_S = 0.0025
INTERVAL_S = 0.1
WINDOW = 5
SCALE_SAMPLES = 5


class _Map:
    __slots__ = ("img",)

    def __init__(self, img):
        self.img = img

    def then(self, other):
        b = other.img
        return _Map([-1 if y < 0 else b[y] for y in self.img])


def loop_seconds() -> float:
    """Time of one run of the fixed calibration loop, in seconds."""
    t0 = perf_counter()
    rng = random.Random(12345)
    maps = [_Map([rng.randrange(-1, 17) for _ in range(17)])
            for _ in range(24)]
    seen, out = {}, []
    for i in range(200):
        c = maps[i % 24].then(maps[(i * 7 + 3) % 24]).then(maps[i % 24])
        key = hash(tuple(c.img))
        seen[key] = seen.get(key, 0) + 1
        defined = sorted(y for y in c.img if y >= 0)
        out.append((len(set(defined) | {i}), sum(defined),
                    max(defined, default=0)))
        try:
            int("x" if i % 9 == 0 else "5")
        except ValueError:
            pass
    heapq.heapify(out)
    return perf_counter() - t0


def speed_scale() -> float:
    """``REF_LOOP_S`` over the median of a few loop times: the factor that
    turns raw seconds measured now into reference seconds."""
    return REF_LOOP_S / statistics.median(loop_seconds()
                                          for _ in range(SCALE_SAMPLES))


class RefClock:
    """Call it for the reference seconds since ``start``.  Call ``stop``
    once the timed work ends; only one can run at a time, since it owns
    SIGALRM."""

    def __init__(self):
        self.loops = []        # raw loop times, in seconds
        self._total = 0.0      # reference seconds up to _mark
        self._raw = 0.0        # raw seconds up to _mark, loops left out
        self._mark = perf_counter()
        self._scale = 1.0
        self._gen = 0          # bumped by every sample

    def _sample(self, _signum=None, _frame=None) -> None:
        now = perf_counter()
        self._total += (now - self._mark) * self._scale
        self._raw += now - self._mark
        loop = loop_seconds()
        self.loops.append(loop)
        self._scale = REF_LOOP_S / statistics.median(self.loops[-WINDOW:])
        self._gen += 1
        self._mark = perf_counter()

    def __call__(self) -> float:
        while True:
            gen = self._gen
            value = self._total + (perf_counter() - self._mark) * self._scale
            if gen == self._gen:   # no sample ran while reading
                return value

    def raw(self) -> float:
        """Raw seconds since ``start``, the loops left out."""
        while True:
            gen = self._gen
            value = self._raw + (perf_counter() - self._mark)
            if gen == self._gen:
                return value

    def start(self) -> "RefClock":
        self._sample()
        self._total = self._raw = 0.0
        self._prev = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._prev)
