"""Hierarchical span tracing over simulated time.

A :class:`Tracer` records what the replicated system *did* as a tree of
spans — transaction → operation → quorum phase — each stamped with
simulated start/end times and structured attributes (quorum used, view
timestamp, conflict kind).  A protocol step that reaches repositories
(a quorum phase, an anti-entropy exchange, a reconfiguration phase, a
compaction) is one span naming the sites it attempted and served; a
single RPC leg records nothing.  Instrumented layers hold
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
time, deterministic per seed.  A tracer bound to no clock stamps every
span 0.0.

**Span retention** is a policy, not a given.  Listeners (the streaming
auditor, the stream exporters) see every span of the kinds they read
regardless (:attr:`TraceListener.span_kinds`; unstated = all of them);
retention only controls what the tracer itself keeps for
after-the-fact inspection (``spans``, forensics,
:func:`~repro.obs.export.walk_forest`):

* ``retention="all"`` — keep everything (the default; exact PR-1
  behavior, memory grows with the run);
* ``retention="ring"`` — keep the last ``window`` spans in a ring
  buffer: O(window) memory, enough tail for violation forensics.

``retained_spans`` / ``peak_retained`` expose the live count and its
high-water mark: a soak stayed bounded iff its tracer's peak never
passed the window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


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
RETENTION_MODES = ("all", "ring")

#: Default ring-buffer size when ``retention="ring"`` without a window.
DEFAULT_WINDOW = 4096


@dataclass(slots=True)
class Span:
    """One timed node in the trace tree."""

    span_id: int
    parent_id: int | None
    name: str
    #: Coarse role: "transaction", "operation", "quorum", "sync", "event", ...
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


class _UnboundClock:
    """A tracer's clock until :meth:`Tracer.bind_clock`: it reads 0.0, so
    every span an unbound tracer records is stamped 0.0."""

    __slots__ = ()
    now = 0.0


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
    start + end pair.  The online auditor
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
        #: (normally the :class:`~repro.sim.kernel.Simulator`); without
        #: one, every stamp reads 0.0 until :meth:`bind_clock`.
        self._clock = clock if clock is not None else _UnboundClock()
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
        self._spans: Any = (
            deque(maxlen=self.window) if retention == "ring" else []
        )
        #: High-water mark of :attr:`retained_spans`.
        self.peak_retained = 0
        #: Spans closed so far, point events included:
        #: what a listener reading every kind has been handed.
        self.closed = 0
        self._stack: list[Span] = []
        self._next_id = 1
        self._listeners: list[TraceListener] = []
        self._route()

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

    def event(self, name: str, *, site: int | None = None, **attrs: Any) -> Span:
        """A point-in-time marker (crash, recovery, async delivery, ...)."""
        span = self.start_span(name, kind="event", site=site, **attrs)
        span.end = span.start
        self.closed += 1
        for hook in self._event_hooks:
            hook(span)
        return span

    # -- inspection ---------------------------------------------------------

    @property
    def retained_spans(self) -> int:
        """How many spans the tracer currently holds (policy-dependent)."""
        return len(self._spans)

    @property
    def spans(self) -> tuple[Span, ...]:
        """Retained spans in creation order (open spans included)."""
        return tuple(self._spans)


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
    ``with tracer.span(...)`` on the hot quorum path reuses one shared
    context manager instead of constructing a fresh object per step.
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

    def event(self, name: str, **_kw: Any) -> Span:
        return NULL_SPAN


#: Shared no-op span, span-context, and tracer instances.
NULL_SPAN = _NullSpan()
NULL_SPAN_CONTEXT = _NullSpanContext()
NULL_TRACER = NullTracer()
