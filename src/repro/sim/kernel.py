"""The discrete-event simulation kernel.

A minimal, deterministic event loop: callbacks are scheduled at a delay
from the current simulated time and executed in time order, with a
monotonically increasing sequence number breaking ties so that two
events at the same instant always run in scheduling order.  All
randomness flows through the kernel's seeded :class:`random.Random`, so
a run is a pure function of its seed and configuration.

The queue is one heap of ``(time, seq, callback)`` tuples.  Every
``seq`` is unique, so a comparison never reaches the callback, and
every scheduled event takes one, so dispatch order — and therefore
every seeded fingerprint — is a function of the scheduling calls alone
(``tests/test_sim_throughput.py`` pins per-step traces).  A scheduled
event always fires: the failure injectors, its only schedulers, never
take one back.

:meth:`Simulator.reach` runs a leg in place where an event scheduled for
it would fire; a gather wave with nothing to dispatch or fail does what
``reach`` would itself, so a fault-free run dispatches no kernel events.

Observability: an optional :class:`~repro.obs.trace.Tracer` receives a
``sim.run`` event per productive batch of due events.  Wall time per
layer is measured from outside by ``perf/run.py --traced``.
"""

from __future__ import annotations

import heapq
import random
from math import inf
from typing import Callable

from repro.errors import SimulationError
from repro.obs.trace import NULL_TRACER, Tracer


class Simulator:
    """A deterministic event-driven clock."""

    def __init__(self, seed: int = 0, *, tracer: Tracer | None = None):
        #: ``(time, seq, callback)`` tuples; ``seq`` is unique, so
        #: ordering is decided by C-level float and int comparisons.
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.now = 0.0
        #: The single source of randomness for the whole simulation.
        self.rng = random.Random(seed)
        self._running = False
        #: Span/event sink for the layers running on this clock.
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at ``now + delay``."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} into the past")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (self.now + delay, seq, callback))

    def advance(self, delta: float) -> None:
        """Advance the clock without dispatching (models local work time)."""
        if delta < 0:
            raise SimulationError("time cannot move backwards")
        self.now += delta

    def run(self, until: float | None = None) -> int:
        """Dispatch events in time order; returns the number dispatched.

        Stops when the queue empties or the next event lies beyond
        ``until``; then moves the clock on to ``until``.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        bound = None
        if until is not None:
            heap = self._heap
            if not heap or heap[0][0] > until:
                self.now = max(self.now, until)
                return 0
            bound = (until, inf)
        self._running = True
        try:
            dispatched = self._dispatch(bound)
            if until is not None:
                self.now = max(self.now, until)
        finally:
            self._running = False
        if dispatched and self.tracer.enabled:
            self.tracer.event("sim.run", dispatched=dispatched)
        return dispatched

    def reach(self, time: float, leg: Callable[..., None], *args) -> int:
        """Run ``leg(*args)`` at ``time`` in place, as an event scheduled now.

        An event scheduled for ``time`` plus :meth:`run` up to it, minus
        its heap entry: claims its sequence number, dispatches every
        event keyed ahead of it, sets the clock and calls ``leg`` inside
        the reentrancy guard.
        Returns the number of events dispatched on the way.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if time < self.now:
            raise SimulationError(f"cannot reach {time}: simulated time is {self.now}")
        seq = self._seq
        self._seq = seq + 1
        self._running = True
        try:
            dispatched = self._dispatch((time, seq)) if self._heap else 0
            self.now = time
            if dispatched and self.tracer.enabled:
                self.tracer.event("sim.run", dispatched=dispatched)
            leg(*args)
        finally:
            self._running = False
        return dispatched

    def _dispatch(self, bound: tuple | None) -> int:
        """Dispatch events keyed before ``bound`` (all when ``None``)."""
        dispatched = 0
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            if bound is not None and heap[0] >= bound:
                break
            time, _seq, callback = heappop(heap)
            if time > self.now:
                self.now = time
            callback()
            dispatched += 1
        return dispatched

    def drain(self) -> int:
        """Dispatch everything due at or before the current time.

        Safe to call from code running outside the event loop (e.g. the
        synchronous RPC path); a no-op when called re-entrantly from
        within a dispatched event.
        """
        if self._running:
            return 0
        return self.run(until=self.now)
