"""Host-speed calibration: a fixed pure-Python workload that runs on a
spare core beside the measured work, so that times can be scaled to a
reference speed.

On a shared host the speed of a core drifts with other tenants' load,
by up to twice over minutes, and a run measured while the host is slow
reads slow in wall time and in CPU time alike.  The calibrator repeats
one exploration (small immutable states with Python-level
``__hash__``/``__eq__``, a successor function, a visited set: the kind
of work the verifier does, none of its code, so a change to ``repro``
never moves it) and timestamps every lap.  The mean lap over the
interval a sweep ran in measures how fast the host was during exactly
that interval; a time scaled by ``REFERENCE_LAP_S / mean lap`` reads as
it would at the reference speed.  The calibrator must have a core of
its own, so it only runs beside single-process work.

The cores of one host do not slow alike: a core whose sibling another
tenant keeps busy runs slower than the rest for minutes at a time.  So
the benchmark swaps the cores of the calibrator and the measured
process every ``ROTATE_S`` (``run.Calibrator``): over a sweep both
have used every core for about the same time.

A hypervisor that runs other guests on a busy host also takes the core
away now and then (steal time): that adds to wall time but not to CPU
time.  So every lap records its CPU seconds too, and CPU times are
scaled by the mean CPU seconds of a lap.

Run as ``python3 perfbench/calib.py``: it prints ``ready``, laps until
it receives SIGTERM, then prints a JSON list of ``[start, end, cpu]``
per lap: start and end on the system-wide monotonic clock, and the
lap's CPU seconds.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from typing import Sequence

#: Mean lap on the reference host (a 2-vCPU VM on an Intel Xeon, Python
#: 3.11) with the other core busy; it read 0.065-0.15 s there as the
#: host's load changed.
REFERENCE_LAP_S = 0.08

#: Side of the explored grid; the reachable set has SIDE ** 4 states.
SIDE = 9

#: Seconds between swaps of the calibrator's and the measured process's
#: cores.
ROTATE_S = 1.0


class _Cell:
    """An immutable state with Python-level hashing, like the
    verifier's value classes."""

    __slots__ = ("coords", "_hash")

    def __init__(self, coords: tuple[int, ...]) -> None:
        self.coords = coords
        self._hash = hash(coords)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Cell) and self.coords == other.coords


def _successors(cell: _Cell, side: int) -> list[_Cell]:
    """Step one coordinate up or down, or swap two neighbours."""
    out = []
    c = cell.coords
    for i in range(len(c)):
        for step in (1, side - 1):
            out.append(_Cell(c[:i] + ((c[i] + step) % side,) + c[i + 1 :]))
        if i + 1 < len(c):
            out.append(_Cell(c[:i] + (c[i + 1], c[i]) + c[i + 2 :]))
    return out


def explore(side: int = SIDE) -> int:
    """Depth-first reachability from the origin; returns the number of
    states seen (always ``side ** 4``)."""
    start = _Cell((0, 0, 0, 0))
    seen = {start: frozenset(start.coords)}
    todo = [start]
    while todo:
        cell = todo.pop()
        for nxt in _successors(cell, side):
            if nxt not in seen:
                seen[nxt] = frozenset(nxt.coords)
                todo.append(nxt)
    return len(seen)


def mean_lap(laps: Sequence[Sequence[float]], t0: float, t1: float, cpu: bool = False) -> float:
    """Mean wall (or, with ``cpu``, CPU) seconds of the laps that
    overlap ``[t0, t1]``, each weighted by its overlap; the lap nearest
    the interval when none overlaps."""
    weight = total = 0.0
    for start, end, cpu_s in laps:
        overlap = min(end, t1) - max(start, t0)
        if overlap > 0:
            weight += overlap
            total += overlap * (cpu_s if cpu else end - start)
    if weight:
        return total / weight
    if not laps:
        raise ValueError("no calibration laps")
    start, end, cpu_s = min(laps, key=lambda lap: min(abs(lap[0] - t1), abs(lap[1] - t0)))
    return cpu_s if cpu else end - start


def main() -> int:
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    explore()  # warm-up: the first exploration grows the heap
    print("ready", flush=True)
    laps = []
    while not stopping:
        started = time.monotonic()
        cpu = time.process_time()
        if explore() != SIDE**4:
            raise AssertionError("calibration explored the wrong state count")
        laps.append((started, time.monotonic(), time.process_time() - cpu))
    print(json.dumps(laps), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
