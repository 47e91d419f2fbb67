"""The host's speed, sampled while the program runs, and the scaling of
measured times to a reference host.

This host's speed drifts by tens of percent over seconds to minutes, and
the program's times drift with it. So a fixed **tick** of work, a short
Python loop that runs none of the program's code, is timed every
``PERIOD_S`` of wall time from a ``SIGALRM`` handler while a subcommand
runs, and in a burst of ``CALIB_TICKS`` ticks before and after set-up. A
stretch of work is reported in reference seconds: its measured seconds,
less the ticks that ran inside it, times ``TICK_REF_S`` over the median
tick of the stretch. A change to the program moves the scaled time as much
as the measured one, since the ticks do not run it.

Python runs signal handlers on the main thread. The benchmark pins its
processes to one CPU (``pin_to_one_cpu``), so the ticks run on the core
that does the work, also while the program computes in a thread of its own.
A tick is kept well below the interpreter's 5 ms switch interval, so such a
thread does not take the interpreter back in the middle of a tick.
"""
from __future__ import annotations

import os
import signal
import statistics
import time

TICK_ITERATIONS = 20_000
# A typical tick on the reference host (2 cores of a shared machine); it
# only sets the scale, so that scaled times read close to seconds.
TICK_REF_S = 0.0017
PERIOD_S = 0.1
CALIB_TICKS = 50
MIN_TICKS = 5


def pin_to_one_cpu() -> None:
    """Keep this process, and every process and thread it starts later, on
    the lowest CPU it may use."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def tick() -> float:
    """Seconds one fixed piece of Python work takes now."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(TICK_ITERATIONS):
        acc += k * k % 7
    return time.perf_counter() - t0


def calibrate() -> float:
    """The median of a burst of ticks."""
    return statistics.median(tick() for _ in range(CALIB_TICKS))


def scaled(seconds: float, tick_s: float) -> float:
    """``seconds`` measured while a tick took ``tick_s``, in reference
    seconds."""
    return seconds * TICK_REF_S / tick_s


class Sampler:
    """Times a tick every ``PERIOD_S`` of wall time while the ``with`` block
    runs. A tick runs synchronously on the main thread, so it lies wholly
    inside or wholly outside any stretch the main thread brackets with
    ``time.perf_counter()``."""

    def __init__(self):
        self.ticks = []  # (start, seconds)
        self._old = None

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.ticks.append((start, tick()))

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def between(self, t0: float, t1: float) -> list:
        """Durations of the ticks that ran between two ``perf_counter``
        readings."""
        ticks = [s for start, s in self.ticks if t0 <= start <= t1]
        if len(ticks) < MIN_TICKS:
            raise RuntimeError(f"only {len(ticks)} ticks in {t1 - t0:.3f} s")
        return ticks
