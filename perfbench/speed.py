"""Machine-speed probe: scales measured times to the reference machine's speed.

The machines this benchmark runs on are shared, and their speed swings by up
to 1.8x, both within seconds and for minutes at a time.  The program's work is
deterministic, so such swings are the machine, not the program.  The probe
times four small fixed kernels that share no code with heisweil, round-robin,
from a SIGALRM handler every ``INTERVAL`` seconds of the timed passes.  A
span of wall time is then scaled by

    REF_S / (geometric mean over the kernels of their median time in the span)

which is its length at the speed the kernels had on the reference machine.
The kernels cover what heisweil spends its time on: interpreted integer
arithmetic, small numpy calls, memory-bound lookups, and argparse with JSON.

The handler only runs between bytecodes, so a long C call (an einsum) delays
the next sample until it returns.  Time spent in the handler is counted in
``spent`` and subtracted from the timed operations.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import math
import random
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.025  # seconds between timer samples
MIN_SAMPLES = 3  # samples of each kernel behind every scale factor
# Geometric mean of the kernels' median times on the reference machine
# (2-core VM, Intel Xeon 2.1 GHz, Python 3.11.7, numpy 2.4.6).
REF_S = 4.3e-4


def _interp() -> int:
    s, d = 0, {}
    for i in range(3000):
        s = (s * 31 + i * i) % 1000003
        d[i & 63] = s
    return s


_M = np.arange(16, dtype=np.int64).reshape(4, 4)


def _numpy() -> int:
    a = _M
    for i in range(60):
        a = (a @ a + i) % 1000003
        b = a.T.copy()
        b[0, 0] += 1
    return int(a.sum())


_rng = random.Random(0)
_TABLE = [_rng.randrange(1 << 40) for _ in range(1 << 16)]
_INDEX = [_rng.randrange(1 << 16) for _ in range(2000)]


def _memory() -> int:
    table = _TABLE
    return sum(table[i] & 0xFFFF for i in _INDEX)


def _stdlib() -> int:
    parser = argparse.ArgumentParser(prog="probe")
    sub = parser.add_subparsers(dest="cmd")
    cmd = sub.add_parser("x")
    cmd.add_argument("--n", type=int)
    cmd.add_argument("--m", type=str)
    ns = parser.parse_args(["x", "--n", "3", "--m", "[[1, 2], [3, 4]]"])
    return len(json.dumps(json.loads(ns.m)))


KERNELS = (_interp, _numpy, _memory, _stdlib)


class SpeedProbe:
    def __init__(self) -> None:
        self.at: list[float] = []  # start of each sample, ascending
        self.kernel: list[int] = []  # which kernel each sample ran
        self.took: list[float] = []  # its duration
        self.spent = 0.0  # seconds spent sampling so far
        self._next = 0
        self._old_handler = None
        for k in KERNELS:  # warm up
            k()

    def sample(self) -> None:
        i = self._next
        self._next = (i + 1) % len(KERNELS)
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's garbage is not the kernel's time
        t0 = time.perf_counter()
        KERNELS[i]()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.at.append(t0)
        self.kernel.append(i)
        self.took.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._old_handler = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._old_handler is not None:
            signal.signal(signal.SIGALRM, self._old_handler)
            self._old_handler = None

    @contextlib.contextmanager
    def paused(self):
        running = self._old_handler is not None
        if running:
            self.stop()
        try:
            yield
        finally:
            if running:
                self.start()

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns wall time spent in [t0, t1] into reference seconds.

        Uses the samples taken in the span, widened to the nearest samples on
        either side until every kernel has MIN_SAMPLES."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        counts = [0] * len(KERNELS)
        for i in self.kernel[lo:hi]:
            counts[i] += 1
        while min(counts) < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            # take the nearer neighbour in time
            if hi >= len(self.at) or (lo > 0 and t0 - self.at[lo - 1] <= self.at[hi] - t1):
                lo -= 1
                counts[self.kernel[lo]] += 1
            else:
                counts[self.kernel[hi]] += 1
                hi += 1
        if min(counts) == 0:
            raise RuntimeError("speed probe has no sample of some kernel")
        by_kernel: list[list[float]] = [[] for _ in KERNELS]
        for i, dt in zip(self.kernel[lo:hi], self.took[lo:hi]):
            by_kernel[i].append(dt)
        geo = math.exp(sum(math.log(statistics.median(d)) for d in by_kernel) / len(KERNELS))
        return REF_S / geo
