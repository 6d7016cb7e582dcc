"""Host-speed calibration for wall-clock timings.

On a small shared virtual machine the host's speed drifts by tens of
percent over minutes (a fixed CPU loop timed back to back moved between
62 and 113 ms per 5 s window), far more than the regressions the bounds
must catch. Each timed sample is therefore bracketed by a fixed loop
whose mix resembles the jobs (interpreted arithmetic, numpy calls on
small arrays, decimal parsing, BLAS), and a run reports the median over
samples of

    wall * REF_S / mean(loop before, loop after)

where each loop time is the median of three loops run back to back.
i.e. seconds at the host speed at which the loop takes REF_S. Over
fifteen-second windows this cut the spread of a job's median across ten
windows from about 0.24 to about 0.05 of the median on a 2-core Xeon
KVM guest, half of what a loop of interpreted arithmetic and matmuls
alone achieved. The program under test never runs during the loop, so a
change to the program moves these figures as it moves raw wall time at
a fixed host speed. Raw wall times are reported beside them.

A job that keeps several cores busy (simulate_h1's two pool workers) is
calibrated with the loop running on as many cores at once: a loop timed
on one core tracked that job's wall time no better than no adjustment.
"""

from __future__ import annotations

import multiprocessing
import time
from statistics import median

import numpy as np

#: Median loop time on the 2-core Xeon KVM guest the bounds were set on.
REF_S = 0.020

_RNG = np.random.default_rng(0)
_M = _RNG.standard_normal((200, 200))
_S = _RNG.standard_normal((12, 20, 20))
_DECIMALS = [repr(float(v)) for v in _RNG.standard_normal(20_000)]


def loop_s() -> float:
    """Seconds for one fixed loop of about 20 ms on the reference host."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    for _ in range(400):
        d = _S[:, 3, 3] - _S[:, 5, 5]
        o = _S[:, 3, 5] + _S[:, 5, 3]
        acc += d @ d - o @ o
    acc += sum(float(text) for text in _DECIMALS)
    for _ in range(10):
        _M @ _M
    return time.perf_counter() - start


def _serve(conn):
    while conn.recv():
        conn.send(loop_s())


class Calibrator:
    """Times the loop on ``width`` cores at once: here and in helper processes.

    The helpers block on their pipe between calls, so they use no CPU
    while a job runs. Use as a context manager; leaving it stops them.
    """

    def __init__(self, width: int = 1):
        ctx = multiprocessing.get_context("spawn")
        self._pipes, self._procs = [], []
        for _ in range(width - 1):
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(theirs,), daemon=True)
            proc.start()
            self._pipes.append(mine)
            self._procs.append(proc)

    def loop_s(self, repeats: int = 3) -> float:
        """Median over repeats of the mean loop time over the cores."""
        means = []
        for _ in range(repeats):
            for conn in self._pipes:
                conn.send(True)
            times = [loop_s()] + [conn.recv() for conn in self._pipes]
            means.append(sum(times) / len(times))
        return median(means)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for conn in self._pipes:
            conn.send(False)
        for proc in self._procs:
            proc.join()


def adjusted(samples, cycle: int = 1) -> float:
    """Median over cycles of the mean [wall, loop before, loop after] sample
    at the reference speed; a cycle is ``cycle`` consecutive samples."""
    times = [wall * REF_S * 2.0 / (before + after) for wall, before, after in samples]
    return median(sum(times[i:i + cycle]) / cycle
                  for i in range(0, len(times) - cycle + 1, cycle))
