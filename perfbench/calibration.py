"""A fixed reference loop, timed while the program runs, that rescales
host seconds to seconds of a host running at nominal speed.

The benchmark shares a few cores of a host with other jobs.  On a
2-core share of a 2.0 GHz Xeon the CPU time of replays of equal work
(the same event count) moved by 1.8x within a minute, and a slow
stretch can last minutes, so no statistic over one run's own
repetitions removes it.  While the
measured code runs, the loop is timed every :data:`PERIOD_S` from a
``SIGALRM`` handler, in the same process; each stretch of the code's
own host time between two loop timings is rescaled by
``NOMINAL_S / loop time`` around it, and the stretches are summed.

The loop does what the simulator's hot path does (heap pushes and pops
of small objects, dict stores, generator resumes), and nothing in it
depends on the program, so a change to the program moves only the
code's side of the ratio.
"""

from __future__ import annotations

import contextlib
import heapq
import random
import signal
import statistics
import time
import typing as _t

#: Host seconds between two loop timings.
PERIOD_S = 0.1
#: Iterations of the loop: about 2 ms, 2% of the time at ``PERIOD_S``.
LOOP_ITERATIONS = 1000
#: The scale of nominal seconds: the loop's time on a nominal host,
#: about what it takes on a 2-core share of a 2.0 GHz Xeon in a fast
#: stretch.  Only ratios of nominal times carry meaning.
NOMINAL_S = 0.002


class _Event:
    __slots__ = ("at", "seq", "payload")

    def __init__(self, at: float, seq: int, payload: dict) -> None:
        self.at = at
        self.seq = seq
        self.payload = payload

    def __lt__(self, other: "_Event") -> bool:
        return self.at < other.at


def _resumer() -> _t.Generator[int, int, None]:
    total = 0
    while True:
        total += yield total


def reference_loop(iterations: int = LOOP_ITERATIONS) -> None:
    """Fixed work: a small event heap, dict stores, generator resumes."""
    rnd = random.Random(7)
    queue: list[_Event] = []
    store: dict[tuple[int, str], list] = {}
    resumer = _resumer()
    next(resumer)
    for seq in range(iterations):
        heapq.heappush(queue, _Event(rnd.random(), seq, {"seq": seq}))
        if len(queue) > 300:
            event = heapq.heappop(queue)
            store[(event.seq % 97, "k")] = [event.at, event.payload]
        resumer.send(1)


class Calibration:
    """Loop timings taken before, during and after a block of code."""

    def __init__(self) -> None:
        #: ``(start, host seconds)`` of each loop, in time order.
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    @contextlib.contextmanager
    def ticking(self) -> _t.Iterator[None]:
        """Time the loop on entry, every :data:`PERIOD_S` inside the
        block, and on exit."""
        self.samples.clear()
        self.sample()
        previous = signal.signal(signal.SIGALRM, lambda _sig, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def _stretches(self) -> list[tuple[float, float]]:
        """``(own host seconds, loop time)`` of each stretch between two
        loop timings; the loop time is the mean of the two around it,
        each the median of itself and its neighbours (one loop hit by
        an interrupt then does not rescale a stretch)."""
        loops = [elapsed for _start, elapsed in self.samples]
        smooth = [statistics.median(loops[max(0, i - 1):i + 2]) for i in range(len(loops))]
        return [
            (start_b - (start_a + elapsed_a), (smooth[i] + smooth[i + 1]) / 2)
            for i, ((start_a, elapsed_a), (start_b, _)) in enumerate(
                zip(self.samples, self.samples[1:])
            )
        ]

    @property
    def host_s(self) -> float:
        """Host seconds of the block, the loops inside it excluded."""
        return sum(own for own, _loop in self._stretches())

    @property
    def nominal_s(self) -> float:
        """Nominal seconds of the block, the loops inside it excluded."""
        return sum(own * NOMINAL_S / loop for own, loop in self._stretches())
