"""Call timing rescaled by the speed the machine showed beside each call.

On a shared virtual machine identical work runs at speeds up to about two
times apart.  Each virtual CPU switches speed on its own within tenths of a
second, and the share of fast time drifts over minutes.  A raw time
therefore says as much about the neighbours as about the program.
``Clock`` times a calibration kernel, made of the benchmark's own closed
forms and no ``cloudpricing`` code, in a short window just before and just
after every timed call, on each CPU the process may run on in turn.  A
call's rescaled time is its wall time times ``KERNEL_S`` over the kernel's
mean time in the two windows: the time the call would take on a machine
that runs the kernel in ``KERNEL_S`` seconds throughout.  A slower program
still reads slower, since the kernel does not change with the program.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

from market import objective, random_market

#: each window lasts this share of the call's previous time, and at least
#: ``MIN_KERNELS`` kernel runs
WINDOW_SHARE = 0.05
MIN_KERNELS = 8
#: kernel runs at the start of a window that are not counted: after other
#: code the first runs are several times slower while caches refill
WARM_UP = 2
#: the kernel's time on the 2-vCPU reference machine of README.md at its
#: faster speed; it only sets the scale in which times are reported
KERNEL_S = 65e-6

_MARKET = random_market(np.random.default_rng(20121201), 20)
_PRICES = np.array([1.0, 0.5, 0.7])
_SYSTEM = np.random.default_rng(1212).uniform(size=(40, 40)) + 40.0 * np.eye(40)
_RHS = np.ones(40)


def _kernel() -> None:
    """Small numpy calls driven from Python, as the program's solves are."""
    objective(_MARKET, "resource", _PRICES, 1.0, 2.0)
    np.linalg.solve(_SYSTEM, _RHS)


class Clock:
    """Times labelled calls and the calibration kernel beside them."""

    def __init__(self) -> None:
        self.samples = defaultdict(list)  # label -> [(seconds, kernel mean beside)]
        self._last = {}  # label -> seconds of its latest call

    def _window(self, seconds: float) -> float:
        """Mean seconds of the kernel over the CPUs, run for about ``seconds``.

        With more than one CPU allowed, this thread is held on each in turn
        and then let go; threads it starts later may use them all.
        """
        cpus = sorted(os.sched_getaffinity(0))
        means = []
        try:
            for cpu in cpus:
                if len(cpus) > 1:
                    os.sched_setaffinity(0, {cpu})
                for _ in range(WARM_UP):
                    _kernel()
                times = []
                end = perf_counter() + seconds / len(cpus)
                while len(times) < MIN_KERNELS or perf_counter() < end:
                    start = perf_counter()
                    _kernel()
                    times.append(perf_counter() - start)
                means.append(sum(times) / len(times))
        finally:
            os.sched_setaffinity(0, cpus)
        return sum(means) / len(means)

    def measure(self, label: str, run) -> None:
        """Record ``run()``, which returns the seconds it measured itself."""
        span = WINDOW_SHARE * self._last.get(label, 0.0)
        before = self._window(span)
        elapsed = run()
        after = self._window(span)
        self._last[label] = elapsed
        self.samples[label].append((elapsed, 0.5 * (before + after)))

    def timed(self, label: str, fn, *args):
        """Call ``fn(*args)``, record its wall time, and return its result."""
        box = []

        def run() -> float:
            start = perf_counter()
            box.append(fn(*args))
            return perf_counter() - start

        self.measure(label, run)
        return box[0]

    def rescaled(self, label: str) -> list:
        """Rescaled seconds of every call recorded under ``label``."""
        return [elapsed * KERNEL_S / beside for elapsed, beside in self.samples[label]]

    def median(self, label: str) -> float:
        return statistics.median(self.rescaled(label))

    def total(self, labels) -> float:
        """Sum over ``labels`` of each one's median rescaled seconds."""
        return sum(self.median(label) for label in labels)

    def slowdown(self) -> float:
        """Mean kernel time beside the calls over ``KERNEL_S``."""
        beside = [b for samples in self.samples.values() for _, b in samples]
        return statistics.mean(beside) / KERNEL_S
