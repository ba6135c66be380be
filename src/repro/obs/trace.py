"""Hierarchical span tracing over simulated time.

A :class:`Tracer` records what the replicated system *did* as a tree of
spans — transaction → operation → quorum phase → per-repository RPC —
each stamped with simulated start/end times and structured attributes
(quorum used, view timestamp, conflict kind).  Instrumented layers hold
a tracer reference and call it unconditionally; the default
:data:`NULL_TRACER` makes every call a no-op so untraced runs pay
essentially nothing.

Two usage styles:

* ``with tracer.span("operation", kind="operation", op="Enq") as span:``
  — a context-managed span.  Nested ``span()`` calls parent themselves
  under the innermost open span; an exception escaping the block closes
  the span with an outcome classified from the exception type
  (``Timeout`` → ``timeout``, ``ConflictError`` → ``conflict``, …).
* ``span = tracer.start_span(...)`` / ``tracer.end_span(span, outcome)``
  — a manual span for lifetimes that cross call boundaries, such as a
  transaction that begins in one call and commits in another.  Manual
  spans never join the context stack; children name them explicitly via
  ``parent=``.

Time comes from whatever clock the tracer is bound to (normally the
simulator, via :meth:`Tracer.bind_clock`), so timestamps are simulated
time, deterministic per seed.

**Span retention** is a policy, not a given.  Listeners (the streaming
auditor, the stream exporters) see every span of the kinds they read
regardless (:attr:`TraceListener.span_kinds`; unstated = all of them);
retention only controls what the tracer itself keeps for
after-the-fact inspection (``spans``, ``walk``, forensics):

* ``retention="all"`` — keep everything (the default; exact PR-1
  behavior, memory grows with the run);
* ``retention="ring"`` — keep the last ``window`` spans in a ring
  buffer: O(window) memory, enough tail for violation forensics;
* ``retention="consume"`` — release each span as soon as its close has
  been streamed to the listeners; only *open* spans are retained, so a
  pure streaming consumer pays O(concurrent spans).

``retained_spans`` / ``peak_retained`` expose the live count and its
high-water mark; :func:`process_peak_retained` tracks the largest
single-tracer high-water mark process-wide so benchmark environment
stamps can prove a run stayed bounded.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator


#: Exception-class-name → span outcome, used when a ``with tracer.span``
#: block is exited by an exception.  Names (not classes) keep this module
#: free of imports from the layers it observes.
_OUTCOME_BY_EXCEPTION = {
    "Timeout": "timeout",
    "UnavailableError": "unavailable",
    "ConflictError": "conflict",
    "TransactionAborted": "aborted",
    # Read-quorum-only fallback (repro.resilience): the span closes
    # "degraded", which history-capture monitors deliberately skip —
    # a degraded read is outside the transaction's logged history.
    "DegradedOperation": "degraded",
}

#: Valid span-retention policies (see the module docstring).
RETENTION_MODES = ("all", "ring", "consume")

#: Default ring-buffer size when ``retention="ring"`` without a window.
DEFAULT_WINDOW = 4096

#: Live (weakly held) tracers, for process-wide retention accounting.
_LIVE_TRACERS: "weakref.WeakSet[Tracer]" = weakref.WeakSet()

#: Largest number of spans any single tracer retained at once.
_PROCESS_PEAK_RETAINED = 0


def process_retained_spans() -> int:
    """Spans currently retained across every live tracer in the process."""
    return sum(tracer.retained_spans for tracer in _LIVE_TRACERS)


def process_peak_retained() -> int:
    """The largest span count any single tracer has retained at once.

    This is the number bounded-memory claims are made about: a soak ran
    with a ring window of W iff this never exceeds W (plus whatever an
    ``retention="all"`` tracer elsewhere in the process retained).
    """
    return _PROCESS_PEAK_RETAINED


@dataclass(slots=True)
class Span:
    """One timed node in the trace tree."""

    span_id: int
    parent_id: int | None
    name: str
    #: Coarse role: "transaction", "operation", "quorum", "rpc", "event", ...
    kind: str
    start: float
    end: float | None = None
    #: Site the span executed at, when it has a natural home site.
    site: int | None = None
    outcome: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    def annotate(self, **attrs: Any) -> "Span":
        """Attach attributes (quorum membership, view timestamp, ...)."""
        self.attrs.update(attrs)
        return self

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "site": self.site,
            "outcome": self.outcome,
            "attrs": dict(self.attrs),
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Span":
        return Span(
            span_id=data["span_id"],
            parent_id=data["parent_id"],
            name=data["name"],
            kind=data["kind"],
            start=data["start"],
            end=data["end"],
            site=data["site"],
            outcome=data["outcome"],
            attrs=dict(data["attrs"]),
        )


class _CountingClock:
    """Fallback clock for tracers not bound to a simulator: 0, 1, 2, ..."""

    def __init__(self) -> None:
        self.now = 0.0

    def tick(self) -> float:
        self.now += 1.0
        return self.now


class _OpenSpans(dict):
    """``retention="consume"``'s open spans by id, appended like a list."""

    def append(self, span: Span) -> None:
        self[span.span_id] = span


class _SpanContext:
    """Makes an open span the implicit parent for a ``with`` body, and
    closes it on exit with the outcome the block had."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, _tb) -> bool:
        # The guard covers Tracer.clear() inside the block: the stack is
        # already empty then, and the span was dropped with the epoch.
        if self._tracer._stack:
            self._tracer._stack.pop()
        outcome = "ok"
        if exc_type is not None:
            outcome = _OUTCOME_BY_EXCEPTION.get(exc_type.__name__, "error")
            fatal = getattr(exc, "fatal", None)
            if fatal is not None:
                self._span.annotate(conflict_kind="fatal" if fatal else "wait")
        self._tracer.end_span(self._span, outcome=outcome)
        return False


def routing_table(
    readers: Iterable[tuple[Iterable[str] | None, Callable]],
) -> tuple[dict[str, tuple[Callable, ...]], tuple[Callable, ...]]:
    """``key → hooks`` for every key some reader names, and the hooks for the rest.

    ``readers`` is ``(keys, hook)`` in registration order, ``keys=None``
    meaning the reader takes every key: its hook is in every row, at its
    registration position, and in the second value, which serves the
    keys no reader named.
    """
    readers = list(readers)
    named = {key for keys, _hook in readers if keys is not None for key in keys}
    return {
        key: tuple(hook for keys, hook in readers if keys is None or key in keys)
        for key in named
    }, tuple(hook for keys, hook in readers if keys is None)


class TraceListener:
    """Live tap on a tracer's span stream.

    Listeners see every span twice: once when it opens (attributes may
    still be incomplete) and once when it closes (attributes final).
    Point events produced by :meth:`Tracer.event` arrive as a single
    start + end pair.  :meth:`Tracer.clear` announces itself through
    ``on_clear`` so stateful listeners drop per-epoch state instead of
    carrying it across the reset.  The online auditor
    (:mod:`repro.obs.audit`) is the principal listener; anything with
    these methods qualifies.

    The tracer routes rather than broadcasts: ``on_span_start`` is
    called only on listeners that define one of their own, and closes
    reach a listener only for the span kinds it reads.
    """

    #: The span kinds whose closes this listener reads; ``None`` (or no
    #: such attribute) = every kind.
    span_kinds: frozenset[str] | None = None

    def on_span_start(self, span: Span) -> None:  # pragma: no cover - interface
        pass

    def on_span_end(self, span: Span) -> None:  # pragma: no cover - interface
        pass

    def on_clear(self) -> None:  # pragma: no cover - interface
        pass


class Tracer:
    """Records spans and point events against a simulated clock."""

    #: ``False`` on the null tracer; instrumentation may consult this to
    #: skip expensive attribute computation when nobody is listening.
    enabled: bool = True

    def __init__(
        self,
        clock: Any | None = None,
        *,
        retention: str = "all",
        window: int | None = None,
    ):
        #: Anything with a ``now`` attribute in simulated time units
        #: (normally the :class:`~repro.sim.kernel.Simulator`).
        self._clock = clock if clock is not None else _CountingClock()
        if retention not in RETENTION_MODES:
            raise ValueError(
                f"unknown retention {retention!r}; pick one of {RETENTION_MODES}"
            )
        if window is not None and window < 1:
            raise ValueError("window must be a positive span count")
        self.retention = retention
        #: Effective ring size (``None`` unless ``retention="ring"``).
        self.window = (
            (window if window is not None else DEFAULT_WINDOW)
            if retention == "ring"
            else None
        )
        #: How a closed span leaves ``_spans``; ``None`` when it stays.
        self._release: Callable | None = None
        if retention == "ring":
            self._spans: Any = deque(maxlen=self.window)
        elif retention == "consume":
            # Closed spans are released the moment listeners have
            # consumed them.
            self._spans = _OpenSpans()
            self._release = self._spans.pop
        else:
            self._spans = []
        #: High-water mark of :attr:`retained_spans` (survives clear()).
        self.peak_retained = 0
        #: Spans closed so far, point events included (survives clear()):
        #: what a listener reading every kind has been handed.
        self.closed = 0
        self._stack: list[Span] = []
        self._next_id = 1
        self._listeners: list[TraceListener] = []
        self._route()
        if type(self).enabled:
            _LIVE_TRACERS.add(self)

    def bind_clock(self, clock: Any) -> None:
        """Read timestamps from ``clock.now`` from here on."""
        self._clock = clock

    # -- listeners ----------------------------------------------------------

    def add_listener(self, listener: TraceListener) -> None:
        """Stream span starts/ends to ``listener`` as they happen."""
        self._listeners.append(listener)
        self._route()

    def remove_listener(self, listener: TraceListener) -> None:
        """Detach a listener registered with :meth:`add_listener`."""
        self._listeners.remove(listener)
        self._route()

    def _route(self) -> None:
        """Rebuild the dispatch tables from the listeners, in their order."""
        self._start_hooks = tuple(
            listener.on_span_start
            for listener in self._listeners
            if getattr(listener.on_span_start, "__func__", None)
            is not TraceListener.on_span_start
        )
        self._end_hooks, self._end_hooks_rest = routing_table(
            (getattr(listener, "span_kinds", None), listener.on_span_end)
            for listener in self._listeners
        )
        self._event_hooks = self._end_hooks.get("event", self._end_hooks_rest)

    @property
    def now(self) -> float:
        return self._clock.now

    # -- span lifecycle -----------------------------------------------------

    def start_span(
        self,
        name: str,
        *,
        kind: str = "span",
        parent: Span | None = None,
        site: int | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span (manual close via :meth:`end_span`).

        ``parent=None`` parents under the innermost context-managed span,
        if any; pass an explicit parent to cross call boundaries.
        """
        if parent is None:
            stack = self._stack
            parent_id = stack[-1].span_id if stack else None
        else:
            parent_id = parent.span_id
        now = self._clock.now
        span = Span(self._next_id, parent_id, name, kind, now, None, site, "ok", attrs)
        self._next_id += 1
        spans = self._spans
        spans.append(span)
        count = len(spans)
        if count > self.peak_retained:
            self.peak_retained = count
            global _PROCESS_PEAK_RETAINED
            if count > _PROCESS_PEAK_RETAINED:
                _PROCESS_PEAK_RETAINED = count
        for hook in self._start_hooks:
            hook(span)
        return span

    def end_span(self, span: Span, outcome: str = "ok") -> None:
        if span.end is None:
            span.end = self._clock.now
            span.outcome = outcome
            self.closed += 1
            for hook in self._end_hooks.get(span.kind, self._end_hooks_rest):
                hook(span)
            if self._release is not None:
                self._release(span.span_id, None)

    def span(
        self,
        name: str,
        *,
        kind: str = "span",
        parent: Span | None = None,
        site: int | None = None,
        **attrs: Any,
    ) -> _SpanContext:
        """Context-managed span; joins the implicit parent stack."""
        return _SpanContext(
            self, self.start_span(name, kind=kind, parent=parent, site=site, **attrs)
        )

    def under(self, span: Span, fn: Callable[[Any], Any], arg: Any) -> Any:
        """``fn(arg)`` with ``span``, left open, as the implicit parent:
        a batched probe's handler events parent under its manual span."""
        stack = self._stack
        stack.append(span)
        try:
            return fn(arg)
        finally:
            if stack:  # empty when fn cleared the tracer
                stack.pop()

    def event(self, name: str, *, site: int | None = None, **attrs: Any) -> Span:
        """A point-in-time marker (crash, recovery, async delivery, ...)."""
        span = self.start_span(name, kind="event", site=site, **attrs)
        span.end = span.start
        self.closed += 1
        for hook in self._event_hooks:
            hook(span)
        if self._release is not None:
            self._release(span.span_id, None)
        return span

    # -- inspection ---------------------------------------------------------

    def _retained(self) -> Any:
        """The retained spans as an iterable, regardless of store shape."""
        return self._spans if self._release is None else self._spans.values()

    @property
    def retained_spans(self) -> int:
        """How many spans the tracer currently holds (policy-dependent)."""
        return len(self._spans)

    @property
    def spans(self) -> tuple[Span, ...]:
        """Retained spans in creation order (open spans included)."""
        return tuple(self._retained())

    def finished_spans(self) -> tuple[Span, ...]:
        return tuple(span for span in self._retained() if span.finished)

    def children_of(self, span: Span | None) -> tuple[Span, ...]:
        parent_id = None if span is None else span.span_id
        return tuple(s for s in self._retained() if s.parent_id == parent_id)

    def roots(self) -> tuple[Span, ...]:
        """Spans with no retained parent, in start order."""
        ids = {span.span_id for span in self._retained()}
        return tuple(
            span
            for span in self._retained()
            if span.parent_id is None or span.parent_id not in ids
        )

    def walk(self) -> Iterator[tuple[Span, int]]:
        """Depth-first (span, depth) pairs over the retained forest."""
        by_parent: dict[int | None, list[Span]] = {}
        ids = {span.span_id for span in self._retained()}
        for span in self._retained():
            key = span.parent_id if span.parent_id in ids else None
            by_parent.setdefault(key, []).append(span)

        def visit(parent_key: int | None, depth: int) -> Iterator[tuple[Span, int]]:
            for span in by_parent.get(parent_key, ()):
                yield span, depth
                yield from visit(span.span_id, depth + 1)

        yield from visit(None, 0)

    def clear(self) -> None:
        """Drop retained spans and reset the context stack.

        Span ids keep counting up (a cleared tracer never reissues an
        id) and ``peak_retained`` keeps its high-water mark.  Listeners
        are told via :meth:`TraceListener.on_clear` so stateful
        consumers reset per-epoch state rather than checking post-clear
        spans against a forgotten past.
        """
        self._spans.clear()
        self._stack.clear()
        for listener in self._listeners:
            listener.on_clear()


class _NullSpan(Span):
    """The one span instance NullTracer hands out; swallows annotations."""

    def __init__(self) -> None:
        super().__init__(span_id=0, parent_id=None, name="", kind="null", start=0.0)

    def annotate(self, **attrs: Any) -> "Span":
        return self


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> Span:
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class NullTracer(Tracer):
    """A tracer that records nothing — the zero-overhead default.

    ``span`` returns the process-wide :data:`NULL_SPAN_CONTEXT`
    singleton, so a disabled tracer allocates nothing per call: every
    ``with tracer.span(...)`` on the hot RPC path reuses one shared
    context manager instead of constructing a fresh object per probe.
    """

    enabled = False

    def bind_clock(self, clock: Any) -> None:
        pass

    def start_span(self, name: str, **_kw: Any) -> Span:
        return NULL_SPAN

    def end_span(self, span: Span, outcome: str = "ok") -> None:
        pass

    def span(self, name: str, **_kw: Any) -> _NullSpanContext:
        return NULL_SPAN_CONTEXT

    def under(self, span: Span, fn: Callable[[Any], Any], arg: Any) -> Any:
        return fn(arg)

    def event(self, name: str, **_kw: Any) -> Span:
        return NULL_SPAN


#: Shared no-op span, span-context, and tracer instances.
NULL_SPAN = _NullSpan()
NULL_SPAN_CONTEXT = _NullSpanContext()
NULL_TRACER = NullTracer()
