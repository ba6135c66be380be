"""repro.obs — structured observability for the replication stack.

Tracing (:mod:`repro.obs.trace`), metric instruments
(:mod:`repro.obs.metrics`), trace exporters (:mod:`repro.obs.export`),
and the online correctness auditor (:mod:`repro.obs.audit`, with seeded
protocol mutations for fault injection in :mod:`repro.obs.mutations`).
The running system (`repro.sim`, `repro.replication`, `repro.txn`) is
instrumented against these interfaces with the no-op
:data:`NULL_TRACER` as default, so tracing is strictly opt-in: pass a
real :class:`Tracer` to
:func:`repro.replication.cluster.build_keyspace` (or the ``python -m
repro trace`` / ``audit`` CLI) to capture span trees.
"""

from repro.obs.audit import (
    Auditor,
    AuditReport,
    Forensics,
    InvariantMonitor,
    Violation,
    default_monitors,
)
from repro.obs.export import (
    export,
    parse_jsonl,
    render_tree,
    to_chrome_trace,
    to_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_SPAN_CONTEXT,
    NULL_TRACER,
    NullTracer,
    Span,
    TraceListener,
    Tracer,
)

__all__ = [
    "Span",
    "Tracer",
    "TraceListener",
    "NullTracer",
    "NULL_SPAN",
    "NULL_SPAN_CONTEXT",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
    "export",
    "to_jsonl",
    "parse_jsonl",
    "render_tree",
    "to_chrome_trace",
    "Auditor",
    "AuditReport",
    "Forensics",
    "InvariantMonitor",
    "Violation",
    "default_monitors",
]
