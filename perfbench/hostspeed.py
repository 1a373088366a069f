"""Host-speed calibration by interleaved probes.

A shared host runs this benchmark at a speed that drifts by tens of per
cent over tens of seconds, and CPU time drifts with wall time, so neither
clock alone compares two runs.  :class:`HostSpeedProbe` measures the
drift where it happens: a ``SIGALRM`` interval timer interrupts the
measured code every :data:`INTERVAL_S` seconds and runs one fixed unit of
interpreter work (:func:`unit`: heap pushes/pops and dict updates, the
operations a discrete-event simulation is made of), recording how long
the unit took.  :meth:`HostSpeedProbe.reference_s` then converts a
wall-clock interval into *reference seconds*: each stretch of measured
code between two probes is scaled by ``REF_UNIT_S / u``, where ``u`` is
the median unit time of the probes around it, and the probes' own time
is left out.  A reference second is a wall second on a host where one
unit takes exactly :data:`REF_UNIT_S`.

Probes run in the main thread between bytecodes, so code that holds the
interpreter in one C call (a large numpy operation) delays the next probe;
the stretch before it is then scaled by the probes around it, as any
other stretch is.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time

#: Wall seconds between the end of one probe and the start of the next.
INTERVAL_S = 0.015
#: Unit time of the reference host: about the median on a 2-CPU x86-64
#: cloud VM under CPython 3.
REF_UNIT_S = 0.0004
#: Probes on each side whose median scales a stretch.
WINDOW = 3
#: Probes run back to back when the probe starts, so every interval has
#: a neighbour to be scaled by.
WARMUP = 8


def unit() -> float:
    """One probe's work: a seeded heap drained into a dict."""
    heap: list[tuple[int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    cells: dict[int, int] = {}
    acc = 0.0
    for i in range(300):
        push(heap, ((i * 7919) % 211, i))
    while heap:
        t, i = pop(heap)
        k = i & 31
        cells[k] = cells.get(k, 0) + t
        acc += t * 0.5
    return acc


class HostSpeedProbe:
    """Interval-timer probes of host speed; one per process."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._clock = time.perf_counter
        self._previous = None
        self._running = False

    def _probe(self) -> None:
        t0 = self._clock()
        unit()
        self.starts.append(t0)
        self.ends.append(self._clock())

    def _on_alarm(self, _signum: int, _frame: object) -> None:
        if not self._running:
            return
        self._probe()
        # one-shot re-armed from here, so a probe never interrupts a probe
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        for _ in range(WARMUP):
            self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        """Disarm the timer and restore the previous handler; the probes
        taken so far stay available."""
        if not self._running:
            return
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        for _ in range(WARMUP):
            self._probe()

    def _unit_near(self, i: int) -> float:
        n = len(self.starts)
        lo, hi = max(0, i - WINDOW), min(n, i + WINDOW + 1)
        return statistics.median(self.ends[j] - self.starts[j] for j in range(lo, hi))

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds of the measured code in the wall interval
        ``[t0, t1]`` (``perf_counter`` readings); probes inside it are
        not counted."""
        starts, ends = self.starts, self.ends
        if not starts:
            raise RuntimeError("no host-speed probes were taken")
        first = bisect.bisect_left(starts, t0)
        last = bisect.bisect_right(ends, t1)  # probes first..last-1 lie inside
        total, edge = 0.0, t0
        for i in range(first, last):
            # the stretch before probe i is scaled by the probes around i
            total += (starts[i] - edge) * REF_UNIT_S / self._unit_near(i)
            edge = ends[i]
        tail = min(last, len(starts) - 1)
        total += (t1 - edge) * REF_UNIT_S / self._unit_near(tail)
        return total

    def median_unit_s(self) -> float:
        """Median time of every probe taken."""
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))
