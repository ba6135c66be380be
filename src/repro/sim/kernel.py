"""The discrete-event simulation kernel.

A minimal, deterministic event loop: callbacks are scheduled at absolute
or relative simulated times and executed in time order, with a
monotonically increasing sequence number breaking ties so that two
events at the same instant always run in scheduling order.  All
randomness flows through the kernel's seeded :class:`random.Random`, so
a run is a pure function of its seed and configuration.

The queue is allocation-free on its hot path.  The heap holds bare
``(time, seq)`` tuples; callbacks live in a dict slot table keyed by
sequence number; cancellable handles are ``__slots__`` objects drawn
from a free-list and recycled at dispatch when (and only when)
``sys.getrefcount`` proves no caller still holds one.  The internal
:meth:`Simulator.call_at` path allocates no handle at all.  Every
scheduled event takes one sequence number, so dispatch order — and
therefore every seeded fingerprint — is a function of the scheduling
calls alone (``tests/test_sim_throughput.py`` pins per-step traces).

:meth:`Simulator.reach` runs a leg in place where an event scheduled for
it would fire; both legs of every gather wave run this way, so a
fault-free run dispatches no kernel events at all.

Observability: an optional :class:`~repro.obs.trace.Tracer` receives a
``sim.run`` event per productive batch of due events.  Wall time per
layer is measured from outside by ``perf/run.py --traced``.
"""

from __future__ import annotations

import heapq
import random
from math import inf
from sys import getrefcount
from typing import Callable

from repro.errors import SimulationError
from repro.obs.trace import NULL_TRACER, Tracer


class EventHandle:
    """A cancellable handle for one scheduled event.

    Carries the event's time, sequence number and callback plus its
    ``cancelled`` / ``dispatched`` state for introspecting callers
    (tests, debuggers), but the heap itself never stores one — only
    ``(time, seq)`` tuples — and handles are recycled through a
    free-list once the kernel can prove no caller still references them.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "dispatched")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.dispatched = False


#: Queues shorter than this are never compacted: rebuilding a tiny heap
#: costs more than carrying a handful of tombstones to the top.
_COMPACT_FLOOR = 64

#: Free-list size cap; recycling beyond this keeps no extra handles alive.
_FREE_LIST_LIMIT = 256


class Simulator:
    """A deterministic event-driven clock."""

    def __init__(self, seed: int = 0, *, tracer: Tracer | None = None):
        #: Bare (time, seq) tuples; comparisons are C-level.
        self._heap: list[tuple[float, int]] = []
        #: seq -> callback for every live (scheduled, not cancelled,
        #: not dispatched) event; absence marks a tombstone.
        self._callbacks: dict[int, Callable[[], None]] = {}
        #: seq -> handle, only for events scheduled through the
        #: public :meth:`schedule`; :meth:`call_at` events have none.
        self._handles: dict[int, EventHandle] = {}
        self._free_handles: list[EventHandle] = []
        self._seq = 0
        #: Live count of scheduled, not-cancelled, not-yet-run events —
        #: kept in lockstep by schedule/cancel/dispatch so ``pending``
        #: is O(1) instead of an O(n) scan of the heap.
        self._live = 0
        #: Cancelled events still buried in the heap (tombstones).
        self._tombstones = 0
        self.now = 0.0
        #: The single source of randomness for the whole simulation.
        self.rng = random.Random(seed)
        self._running = False
        #: Span/event sink for the layers running on this clock.
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at ``now + delay``; returns a cancellable handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} into the past")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        free = self._free_handles
        if free:
            handle = free.pop()
            handle.time = time
            handle.seq = seq
            handle.callback = callback
            handle.cancelled = False
            handle.dispatched = False
        else:
            handle = EventHandle(time, seq, callback)
        self._callbacks[seq] = callback
        self._handles[seq] = handle
        heapq.heappush(self._heap, (time, seq))
        return handle

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}: simulated time is already {self.now}"
            )
        return self.schedule(time - self.now, callback)

    def call_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute ``time``, without a cancel handle.

        The steady-path scheduling primitive for fire-and-forget events
        (message deliveries, failure injections): it pushes one heap tuple
        and one dict slot and allocates no handle object.  Events
        scheduled this way cannot be cancelled.  Consumes one sequence
        number, exactly as :meth:`schedule` does.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}: simulated time is already {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        self._callbacks[seq] = callback
        heapq.heappush(self._heap, (time, seq))

    def cancel(self, event: EventHandle) -> None:
        """Cancel a scheduled event (no-op if it already ran)."""
        if event.cancelled or event.dispatched:
            return
        event.cancelled = True
        self._live -= 1
        self._tombstones += 1
        # The slot entries are the live-ness marker; the heap tuple stays
        # behind as a tombstone until popped or compacted.
        del self._callbacks[event.seq]
        del self._handles[event.seq]
        queue_len = len(self._heap)
        if self._tombstones * 2 > queue_len and queue_len >= _COMPACT_FLOOR:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled tombstones.

        Lazy cancellation leaves cancelled events buried in the heap
        until they bubble to the top; a schedule/cancel-heavy workload
        (timeouts that rarely fire) would otherwise grow the queue
        without bound.  Heapify of the survivors is O(n) and preserves
        dispatch order because (time, seq) keys are unique.  It is a
        plain array filter against the slot table.
        """
        callbacks = self._callbacks
        self._heap = [item for item in self._heap if item[1] in callbacks]
        heapq.heapify(self._heap)
        self._tombstones = 0

    def advance(self, delta: float) -> None:
        """Advance the clock without dispatching (models local work time)."""
        if delta < 0:
            raise SimulationError("time cannot move backwards")
        self.now += delta

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Dispatch events in time order; returns the number dispatched.

        Stops when the queue empties, the next event lies beyond
        ``until``, or ``max_events`` have run; only the first two move the
        clock on to ``until`` (events still due must not fire late).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        bound = None
        if until is not None:
            heap = self._heap
            # Nothing due (a tombstone on top still goes to the loop).
            if not heap or (heap[0][0] > until and heap[0][1] in self._callbacks):
                self.now = max(self.now, until)
                return 0
            bound = (until, inf)
        self._running = True
        try:
            dispatched = self._dispatch(bound, max_events)
            if until is not None and (max_events is None or dispatched < max_events):
                self.now = max(self.now, until)
        finally:
            self._running = False
        if dispatched and self.tracer.enabled:
            self.tracer.event("sim.run", dispatched=dispatched)
        return dispatched

    def reach(self, time: float, leg: Callable[..., None], *args) -> int:
        """Run ``leg(*args)`` at ``time`` in place, as an event scheduled now.

        :meth:`call_at` plus :meth:`run` up to that event, minus its heap
        entry: claims its sequence number, dispatches every live event
        keyed ahead of it, sets the clock and calls ``leg`` inside the
        reentrancy guard.
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
            dispatched = self._dispatch((time, seq), None) if self._heap else 0
            self.now = time
            if dispatched and self.tracer.enabled:
                self.tracer.event("sim.run", dispatched=dispatched)
            leg(*args)
        finally:
            self._running = False
        return dispatched

    def _dispatch(self, bound: tuple | None, max_events: int | None) -> int:
        """Dispatch live events keyed before ``bound`` (all when ``None``)."""
        dispatched = 0
        heap = self._heap
        callbacks = self._callbacks
        handles = self._handles
        free = self._free_handles
        heappop = heapq.heappop
        while heap:
            if max_events is not None and dispatched >= max_events:
                break
            time, seq = heap[0]
            callback = callbacks.get(seq)
            if callback is None:
                heappop(heap)
                self._tombstones -= 1
                continue
            if bound is not None and heap[0] >= bound:
                break
            heappop(heap)
            del callbacks[seq]
            handle = handles.pop(seq, None)
            if handle is not None:
                handle.dispatched = True
                # Recycle only when the kernel holds the last references
                # (the local plus getrefcount's argument): a caller that
                # kept the handle may still cancel() it later, and that
                # must stay a no-op on *this* event, not a future one.
                if getrefcount(handle) == 2 and len(free) < _FREE_LIST_LIMIT:
                    handle.callback = None
                    free.append(handle)
            self._live -= 1
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

    @property
    def dispatching(self) -> bool:
        """``True`` while the kernel is inside :meth:`run` dispatching events.

        Code that may be called both from within a dispatched callback
        and from straight-line driver code (e.g. the heal-triggered
        anti-entropy pass) can consult this to decide whether
        :meth:`drain` would be a no-op.
        """
        return self._running

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue.

        O(1): a live counter maintained by ``schedule``/``cancel`` and
        the dispatch loop, not a scan of the heap.
        """
        return self._live

    @property
    def queue_depth(self) -> int:
        """Physical heap length, tombstones included."""
        return len(self._heap)
