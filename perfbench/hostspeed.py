"""How fast the host is running this process, sampled while work runs.

On a shared machine the speed of one thread changes by up to about 2x over
periods of 5 to 15 seconds (identical ``lambda_table(32, 50)`` calls in one
process took 0.83 s to 1.61 s on the 2-vCPU host this benchmark was built
on), which swamps the run-to-run differences a benchmark must resolve.

``HostSpeed`` times a fixed pure-Python kernel from a timer signal every
``INTERVAL`` seconds, in the measuring thread itself, so the kernel runs
under the same contention as the work around it.  ``slowdown`` is the
kernel's median time over ``KERNEL_REF_S``; a time divided by the slowdown
over the same interval is that time at the reference host speed.  Short,
frequent samples and their median track the host more closely than
longer, sparser samples or their mean, and a big-integer kernel more
closely than a small-integer loop: over eleven passes of the ``checks``
workload in one process, the pass times so corrected spread (quartile
distance over median) 0.034, the raw ones 0.23, and those corrected with
a small-integer loop 0.064.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

INTERVAL = 0.05
KERNEL_REF_S = 0.001


MODULUS = (1 << 521) - 1


class _Cell:
    __slots__ = ("value", "index")

    def __init__(self, value: int, index: int) -> None:
        self.value, self.index = value, index


def kernel() -> int:
    """Multiply-and-reduce steps on 521-bit integers, each result kept in a
    new small object: the mix of big-integer work and allocation that the
    measured code does."""
    x, y = 3 ** 200, 7 ** 190
    cells = []
    for i in range(300):
        x = (x * y + i) % MODULUS
        cells.append(_Cell(x, i))
    return len(cells)


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class HostSpeed:
    """Kernel samples taken every ``INTERVAL`` seconds while entered."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(timed_kernel())

    def __enter__(self) -> "HostSpeed":
        self.samples.append(timed_kernel())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def since(self, index: int) -> Tuple[float, float]:
        """(seconds the kernel took since sample ``index``, slowdown over
        those samples, or at the latest sample when none were taken)."""
        taken = self.samples[index:]
        return sum(taken), slowdown(taken or self.samples[-1:])


def slowdown(samples: List[float]) -> float:
    """The host's slowdown from kernel times: their median over
    ``KERNEL_REF_S``."""
    return statistics.median(samples) / KERNEL_REF_S
