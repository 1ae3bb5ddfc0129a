"""Reference-speed clock: converts measured wall time into reference seconds.

On a virtual machine that shares its cores, CPU speed wanders: on a 2-vCPU
Intel Xeon VM a fixed pure-Python loop took between 0.14 s and 0.31 s over
150 s, in stretches of a few seconds, and one sweep pass took between 22 s and
40 s.  Medians within a run of half a minute cannot average that away.  So
while a pass runs, a timer signal interrupts it every EVERY_S and times a
fixed piece of pure-Python work that does not touch qsym (the probe).  An
interval of the pass is then worth, in reference seconds, its measured length
scaled by REF_PROBE_S over the probe time, piece by piece: between two probes
the scale uses the mean of the two.  The probes' own time is left out of every
interval.

Time inside spans of the traced pass still includes the probes, about one
percent of it.
"""

from __future__ import annotations

import bisect
import signal
import time

EVERY_S = 0.1
# About the median probe time on the machine the benchmark was defined on
# (Intel Xeon, 2 vCPUs, Python 3.11.7): reference seconds are seconds there.
REF_PROBE_S = 0.0004

_A = {(i % 7, i % 5, i % 3): i for i in range(16)}
_B = {(i % 4, i % 6, i % 2): i + 1 for i in range(12)}


def _work() -> int:
    """Sparse tuple-keyed products, a recursive generator and an int loop:
    the kinds of work qsym's ring and enumerators do, in a fixed amount."""
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb

    def rec(n, acc):
        if n == 0:
            yield tuple(acc)
            return
        for x in range(3):
            if not acc or x >= acc[-1]:
                acc.append(x)
                yield from rec(n - 1, acc)
                acc.pop()

    counts: dict[tuple[int, int], int] = {}
    for t in rec(4, []):
        k = (sum(t), len(set(t)))
        counts[k] = counts.get(k, 0) + 1
    x = 0
    for i in range(2000):
        x += i * i % 7
    return len(out) + len(counts) + x


def probe() -> float:
    """Seconds for the probe work, best of three so an interrupt does not count."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedClock:
    """Probes on a timer signal between start() and stop(), then converts
    intervals of that stretch with measure()."""

    def __init__(self):
        self.starts: list[float] = []  # probe start times, ascending
        self.ends: list[float] = []
        self.probes: list[float] = []

    def _probe(self, *_):
        t0 = time.perf_counter()
        p = probe()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.probes.append(p)

    def start(self) -> None:
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def measure(self, a: float, b: float) -> tuple[float, float]:
        """(measured seconds, reference seconds) of [a, b], probes left out.

        [a, b] must lie between the first probe and the last."""
        measured = ref = 0.0
        k = bisect.bisect_right(self.ends, a)  # first gap (ends[k-1], starts[k]) reaching past a
        while k < len(self.starts) and self.ends[k - 1] < b:
            lo, hi = max(a, self.ends[k - 1]), min(b, self.starts[k])
            if hi > lo:
                measured += hi - lo
                ref += (hi - lo) * REF_PROBE_S * 2 / (self.probes[k - 1] + self.probes[k])
            k += 1
        return measured, ref
