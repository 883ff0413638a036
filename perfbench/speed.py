"""Host speed probe: a fixed kernel interleaved with the code being timed.

On a few cores of a shared host the same work takes 20-30 % more CPU time
when the host is busy, and such spells last from seconds to minutes, so
CPU times of whole runs differ by that much.  ``SpeedProbe`` runs a small
fixed numpy kernel on the timed thread after every ``INTERVAL_S`` of process
CPU time (``ITIMER_PROF``), so the kernel sees the same host state as the
code around it.  ``factor`` is ``REFERENCE_MS`` over the median kernel
time: multiplying a CPU time measured meanwhile by it gives the CPU time at
the speed where the kernel takes ``REFERENCE_MS``.  The kernel's own CPU
time is counted in ``total_s`` so callers can take it out.

Python runs the signal handler between bytecodes only, so a long call into
BLAS yields one sample at its end, not one per interval.  ``coverage`` is
the share of a CPU time the samples stand for; where it is low the samples
say little about the time spent inside such calls.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# About the median kernel time on an idle 2-vCPU Xeon VM (Python 3.11,
# numpy 2.4).
REFERENCE_MS = 1.0

_RNG = np.random.default_rng(0)
_X = _RNG.random((1024, 3))
_MU = _RNG.random((5, 3))


def kernel() -> float:
    """Fixed small-array numpy work, in the style of per-image extraction."""
    total = 0.0
    for _ in range(3):
        diff = _X[:, None, :] - _MU[None, :, :]
        dens = np.exp(-0.5 * (diff * diff).sum(-1))
        total += float(np.log(dens.sum(1)).sum())
        total += float(np.histogram(_X[:, 0], bins=16)[0].max())
    return total


kernel()  # first calls pay one-off set-up costs inside numpy


class SpeedProbe:
    """Samples the kernel's thread CPU time while it is started."""

    def __init__(self):
        self.samples_ms: list[float] = []
        self.total_s = 0.0

    def _tick(self, signum, frame) -> None:
        # The first call refills the caches the timed code evicted, so the
        # sample, the second call, does not depend on that code's footprint.
        start = time.thread_time()
        kernel()
        warm = time.thread_time()
        kernel()
        end = time.thread_time()
        self.samples_ms.append((end - warm) * 1e3)
        self.total_s += end - start

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def factor(samples_ms: list[float]) -> float:
    return REFERENCE_MS / statistics.median(samples_ms)


def coverage(samples_ms: list[float], cpu_s: float) -> float:
    return len(samples_ms) * INTERVAL_S / cpu_s
