"""How fast the host runs Python while a block of work runs.

The benchmark machine is shared, and its speed moves with the load of
its neighbours, both from second to second and over minutes: the same
simulated cell takes from 0.27 s to 0.67 s of host time.  A fixed
reference loop slows by the same factor as the program, so the
benchmark divides each measured time by the reference loop's slowdown
over the same interval.  The loop runs no ``repro`` code, so a change
to the program's own code does not move it.

That holds only while the measured code runs in the main thread alone
and leaves ``SIGALRM`` to the gauge.  A program thread that holds the
GIL would slow the reference loop too, and so make the program read
faster than it is; a program that sets its own ``SIGALRM`` handler or
``ITIMER_REAL`` would stop or disturb the sampling.  :class:`Gauge`
checks both around every block and raises :class:`GaugeError`, which
fails the measurement instead of reporting a skewed figure.
"""

from __future__ import annotations

import signal
import threading
import time

#: Iterations of one reference loop.
LOOP_ITERATIONS = 6_000

#: One reference loop's time on a quiet host of the benchmark
#: machine's kind (2-core Intel Xeon VM, Python 3.11).  Normalised
#: times are in seconds of such a host.
QUIET_LOOP_S = 0.0015

#: Wall time between reference loops sampled inside a block.
INTERVAL_S = 0.02

#: Reference loops run just before and just after a block.
BOUNDARY_LOOPS = 3


class _Point:
    __slots__ = ("scale", "offset")

    def __init__(self, scale: int, offset: int) -> None:
        self.scale = scale
        self.offset = offset

    def step(self, value: int) -> int:
        return (self.scale * value + self.offset) & 0xFFFF


def loop_seconds() -> float:
    """Wall time of one fixed loop of calls, attribute reads and dict stores."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    point = _Point(3, 7)
    value = 0
    for index in range(LOOP_ITERATIONS):
        value = point.step(value + index)
        table[value & 511] = index
    return time.perf_counter() - start


class GaugeError(RuntimeError):
    """The measured code broke an assumption the normalisation needs."""


class Gauge:
    """Time a ``with`` block in host seconds and in quiet-host seconds.

    While the block runs, ``SIGALRM`` fires every :data:`INTERVAL_S`
    and its handler runs one reference loop; the handler's time is
    taken out of the block's.  :data:`BOUNDARY_LOOPS` more loops run
    just before and just after the block, outside its timing, so a
    short block is gauged too.  The slowdown is the mean loop time over
    :data:`QUIET_LOOP_S`.  Use from the main thread only.

    Raises :class:`GaugeError` if, on entry, another thread runs or
    ``SIGALRM`` or ``ITIMER_REAL`` is already in use, or if, on a clean
    exit, another thread runs or the block replaced the handler.
    """

    def __enter__(self) -> "Gauge":
        self._check_threads("before")
        if (
            signal.getsignal(signal.SIGALRM) is not signal.SIG_DFL
            or signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0)
        ):
            raise GaugeError("SIGALRM or ITIMER_REAL is already in use")
        self._loop_total = 0.0
        self._loops = 0
        self._stolen = 0.0
        self._sample(BOUNDARY_LOOPS)
        self._handler = self._on_alarm
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        handler = signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if exc_type is not None:
            return
        if handler is not self._handler:
            raise GaugeError("the measured code replaced the SIGALRM handler")
        self._check_threads("after")
        #: Host seconds the block took, alarm handlers excluded.
        self.seconds = end - self._start - self._stolen
        self._sample(BOUNDARY_LOOPS)

    @staticmethod
    def _check_threads(when: str) -> None:
        if threading.active_count() != 1:
            raise GaugeError(
                f"{threading.active_count() - 1} thread(s) besides the main "
                f"one run {when} the block; the reference loop would share "
                "the GIL with them"
            )

    def _on_alarm(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self._sample(1)
        self._stolen += time.perf_counter() - start

    def _sample(self, count: int) -> None:
        for _ in range(count):
            self._loop_total += loop_seconds()
            self._loops += 1

    @property
    def slowdown(self) -> float:
        """The host's mean slowdown against a quiet host (1.0 = quiet)."""
        return self._loop_total / self._loops / QUIET_LOOP_S

    @property
    def quiet_seconds(self) -> float:
        """The block's time in seconds of a quiet host."""
        return self.seconds / self.slowdown
