"""Machine speed probe, to report times in reference seconds.

The shared machines this benchmark runs on switch, for seconds to minutes at
a time, between a fast state and one about 1.7 times slower, whatever the
program does.  Raw wall times of whole runs then spread by 15-25% and the
median of ten runs moves with the share of slow runs.  So every timed call
is bracketed by probes: a fixed piece of pure-Python exact arithmetic (the
kind of work the package does: sparse row reduction over Q, dict updates,
bit counts) that never calls the package.  A call's time is scaled by
REF_S over the mean of the probes just before and just after it, which
gives the time it would have taken on the reference machine in its fast
state.  The raw times are kept in the run's metadata.

A change to the package cannot move the probe; a change to this file
changes every reported time and needs a fresh baseline.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# probe() on the reference machine (2-CPU Xeon VM, Python 3.11.7) in its
# fast state: the minimum of 400 probes.
REF_S = 0.0058


def _work() -> int:
    n = 48
    pivots: dict[int, dict[int, Fraction]] = {}
    for i in range(n):
        row = {
            (i * 7 + k * 5) % n: Fraction((i + k) % 5 - 2, 1 + (i * k) % 3)
            for k in range(5)
        }
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                lead = row[c]
                pivots[c] = {k: v / lead for k, v in row.items()}
                break
            f = row[c]
            for k, v in piv.items():
                w = row.get(k, 0) - f * v
                if w:
                    row[k] = w
                else:
                    row.pop(k, None)
    acc = 0
    for m in range(1 << 14):
        acc += (m & (m >> 3)).bit_count()
    return len(pivots) + acc


class SpeedLog:
    """Probes taken between timed calls, and the scale factor of a call."""

    def __init__(self, every_s: float = 0.25) -> None:
        self.every_s = every_s
        self.starts: list[float] = []
        self.values: list[float] = []

    def probe(self) -> None:
        t0 = perf_counter()
        _work()
        self.starts.append(t0)
        self.values.append(perf_counter() - t0)

    def maybe_probe(self) -> None:
        """Probe unless the last probe started less than every_s ago."""
        if not self.starts or perf_counter() - self.starts[-1] >= self.every_s:
            self.probe()

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the mean of the last probe before t0 and the first after t1."""
        near = []
        i = bisect_right(self.starts, t0) - 1
        if i >= 0:
            near.append(self.values[i])
        j = bisect_left(self.starts, t1)
        if j < len(self.starts):
            near.append(self.values[j])
        return REF_S * len(near) / sum(near)
