"""Seconds of a reference host, measured on a host whose speed drifts.

The sandbox this benchmark runs in is a few cores of a shared machine.
The same single-threaded Python work takes 1.0 to 1.5 times as long from
one minute to the next, the extra time is charged to the process as its
own CPU time, and it comes in stretches from a fraction of a second to
minutes — so neither CPU clocks, per-cell minima nor longer runs remove
it (ten 22-second runs of one commit spread by 15–30% of their median).
What does track it is a fixed piece of the benchmark's *own* Python work
timed in between the program's: both slow down together.

:class:`HostClock` therefore times a call with ``perf_counter`` and,
while the call runs, takes a :func:`calibrate` slice every
:data:`INTERVAL_S` from a ``SIGALRM`` handler (Python runs handlers in
the main thread between two bytecodes, so the slice interleaves with the
call without a second thread and without touching the program).  It
returns the call's own seconds — slices taken out — and the host's
**slowdown**: the mean slice time over :data:`REFERENCE_S`, the slice time
of the quiet host the benchmark was defined on.  ``seconds / slowdown``
is the time the call would have taken there, which is what the
wall-clock metrics report.  The loop touches no code of the program, so a
change to the program moves the metric and not the yardstick.
"""

from __future__ import annotations

import signal
from statistics import fmean
from time import perf_counter

#: One :func:`calibrate` slice taken in between the program's work on the
#: quiet reference host (2.1 GHz Xeon vCPU, CPython 3.11): the fastest
#: tenth of 2 000 readings there.
REFERENCE_S = 0.0021
#: A slice this often while a timed call runs (~6% of the call's time).
INTERVAL_S = 0.04


def _table(bits: int):
    size = 1 << bits
    return {index: index * 7919 % 1013 for index in range(size)}, list(range(size)), size - 1


#: Two working sets, because two things slow this host down and the
#: program feels both: 4 Ki entries stay in the core's own cache and follow
#: the core (a busy sibling thread, the clock); 64 Ki entries (~5 MB) do
#: not and follow the shared cache and memory.  Measured on 59 runs of
#: fixed work per workload, the small loop alone left a quartile spread of
#: 5.4–7.7%, the large alone 3.9–5.6%, both together 3.5–5.2% (raw: 8–11%);
#: on 58 more in a busier hour, both together 2.6–5.4% (raw: 17–22%).
_CORE, _SHARED = _table(12), _table(16)


def _mix(left: int, right: int, mask: int) -> int:
    return (left * 31 + right) & mask


def _walk(table, steps: int = 2000) -> None:
    codes, cells, mask = table
    mix = _mix
    code = total = 1
    for _ in range(steps):
        code = mix(code, codes[code], mask)
        cells[code] = total & 1023
        total += cells[(code * 7) & mask]


def calibrate() -> float:
    """Seconds for a fixed loop of calls, dict and list accesses and int arithmetic.

    It allocates no container, so it never triggers or delays a
    collection of the program's objects.
    """
    started = perf_counter()
    for _ in range(2):  # the second pass finds what the first one loaded
        _walk(_CORE)
        _walk(_SHARED)
    return perf_counter() - started


class HostClock:
    def __init__(self) -> None:
        self._slices: list[float] = []

    def _tick(self, _signum, _frame) -> None:
        self._slices.append(calibrate())

    def time(self, thunk):
        """``(thunk(), its own seconds, host slowdown while it ran)``."""
        slices = self._slices = [calibrate(), calibrate()]
        before = signal.signal(signal.SIGALRM, self._tick)
        started = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            value = thunk()
        finally:
            ended = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, before)
        inside = sum(slices[2:])
        slices += (calibrate(), calibrate())
        return value, ended - started - inside, fmean(slices) / REFERENCE_S
