"""The machine's speed, sampled between items by a fixed reference task.

On a shared machine the same work takes up to twice as long at one moment
as at the next, and CPU time stretches as much as wall time, so a raw time
says as much about the other tenants as about kdist.  The benchmark
therefore runs a small fixed task, written here and touching no kdist
code, between items throughout the run, and divides each item's
latency by its *slowdown*: the median of the reference times taken
around it, over REFERENCE_S.  A reported time is thus the time the work
would take on a machine where the reference task takes REFERENCE_S:
slowing kdist down moves it in full, slowing the whole machine down
does not.

The task mimics the kinds of work kdist does, so that contention slows
both alike: exact ``Fraction`` arithmetic (norms, cones, certificates),
a recursive search over int bitmasks (the subset search), and tuples
built, hashed and sorted.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

#: Reference time of one sample: a round figure near the median time of
#: ``reference_task`` on the shared 2-core x86-64 host the benchmark was
#: tuned on.  Only the ratio matters; changing it rescales every time alike.
REFERENCE_S = 0.0015
#: A sample is taken after an item once this long has passed since the last.
EVERY_S = 0.03
#: Samples taken back to back at the start and end of a pass and around a set-up.
BURST = 5
#: Samples an item's slowdown is taken from: those nearest in time to it.
WINDOW = 9


_VECTORS = [(Fraction(i % 7 - 3, 1 + i % 5), Fraction(i % 11 - 5, 2 + i % 3)) for i in range(60)]
_ROWS = [[(i * j + 3 * j) % 9 for j in range(14)] for i in range(14)]


def reference_task() -> int:
    """A fixed piece of the work kdist does, one to two milliseconds.

    Three parts: a gauge-like maximum over exact ``Fraction`` vectors; a
    recursive search over int bitmasks with a list of chosen indices; and
    tuples built, hashed and sorted.
    """
    top = Fraction(0)
    a, b = _VECTORS[0]
    for x, y in _VECTORS:
        top = max(top, abs(x - a) / 3 + abs(y - b) / 2)

    chosen: list[int] = []
    best = [0]

    def dfs(idx: int, mask: int) -> None:
        if idx == len(_ROWS):
            best[0] = max(best[0], len(chosen))
            return
        row = _ROWS[idx]
        new_mask = mask
        for i in chosen:
            new_mask |= 1 << row[i]
        if new_mask.bit_count() <= 3:
            chosen.append(idx)
            dfs(idx + 1, new_mask)
            chosen.pop()
        if len(chosen) + len(_ROWS) - idx > best[0] + 1:
            dfs(idx + 1, mask)

    dfs(0, 0)
    table = {(i % 17, i % 13, i): i * i for i in range(600)}
    keys = sorted(table, key=lambda t: (t[1], -t[0]))
    return top.numerator + best[0] + keys[0][2]


class Speedometer:
    """Reference samples, taken in turns with the work they measure."""

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []
        self.last = perf_counter()

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = perf_counter()
            reference_task()
            self.samples.append(perf_counter() - t0)
            self.times.append(t0)
        self.last = perf_counter()

    def tick(self) -> None:
        """Take a sample if EVERY_S has passed since the last one."""
        if perf_counter() - self.last >= EVERY_S:
            self.sample()

    def take(self) -> list[float]:
        """The samples since the last take."""
        out, self.samples = self.samples, []
        self.times = []
        return out

    def take_timed(self) -> tuple[list[float], list[float]]:
        """The samples since the last take, with the moments they started."""
        times = self.times
        return times, self.take()


def slowdown(samples: list[float]) -> float:
    """How much slower than the reference the machine ran while these were taken."""
    return statistics.median(samples) / REFERENCE_S


def local_slowdowns(at: list[float], times: list[float], samples: list[float]) -> list[float]:
    """For each moment in `at`, the slowdown of the WINDOW samples around it.

    `times` are the samples' start times, in order.  The machine's speed
    shifts for seconds at a time, so a short item is divided by what the
    machine did in the few hundred milliseconds around it rather than by
    its whole pass.
    """
    out = []
    for t in at:
        hi = min(len(times), max(bisect.bisect_left(times, t) - WINDOW // 2, 0) + WINDOW)
        out.append(slowdown(samples[max(hi - WINDOW, 0):hi]))
    return out
