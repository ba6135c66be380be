"""Trace exporters: JSONL, human-readable tree, and Chrome trace JSON.

Three renderings of the same span forest:

* :func:`to_jsonl` / :func:`parse_jsonl` — one JSON object per line,
  lossless (round-trips through :meth:`Span.to_dict`), suitable for
  post-hoc analysis à la k-atomicity trace verification;
* :func:`render_tree` — an indented tree with simulated timestamps, the
  thing a human reads to see why an operation went unavailable;
* :func:`to_chrome_trace` — the Chrome trace-event format, loadable in
  ``chrome://tracing`` / Perfetto: complete (``"ph": "X"``) events with
  microsecond ``ts``/``dur``, instant events for point markers, one
  track (``tid``) per site.

Each batch exporter materializes the whole span list, which caps trace
size at available memory.  The streaming counterparts —
:class:`JsonlStreamWriter` and :class:`ChromeTraceStreamWriter` — are
:class:`~repro.obs.trace.TraceListener`\\ s that flush each span to a
file handle the moment it closes, so a ring-retention tracer
(``Tracer(retention="ring", window=W)``) can export a run of any length
in O(window) memory.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Sequence

from repro.obs.trace import Span, TraceListener

#: Chrome trace timestamps are integral microseconds; simulated time is
#: unit-free, so scale it up enough that sub-unit latencies stay visible.
_CHROME_TIME_SCALE = 1000.0


# -- JSONL ------------------------------------------------------------------


def to_jsonl(spans: Iterable[Span]) -> str:
    """One span per line, creation order preserved."""
    return "\n".join(json.dumps(span.to_dict(), sort_keys=True) for span in spans)


def parse_jsonl(text: str) -> list[Span]:
    """Inverse of :func:`to_jsonl` (blank lines ignored)."""
    return [
        Span.from_dict(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


# -- human-readable tree ----------------------------------------------------


def _ordered(value):
    """A set sorted; a sequence (a step's ``served``) keeps its own order."""
    return sorted(value, key=str) if isinstance(value, (set, frozenset)) else value


def _attr_text(span: Span) -> str:
    if not span.attrs:
        return ""
    parts = []
    for key in sorted(span.attrs):
        value = _ordered(span.attrs[key])
        if isinstance(value, (list, tuple)):
            value = "[" + ",".join(map(str, value)) + "]"
        parts.append(f"{key}={value}")
    return " " + " ".join(parts)


def _span_line(span: Span) -> str:
    when = (
        f"[{span.start:.2f}]"
        if span.kind == "event" or not span.finished
        else f"[{span.start:.2f} → {span.end:.2f}]"
    )
    site = f" @site{span.site}" if span.site is not None else ""
    return f"{span.name} {when} {span.outcome}{site}{_attr_text(span)}"


def walk_forest(spans: Sequence[Span]):
    """Depth-first (span, depth) pairs; unknown parents become roots."""
    ids = {span.span_id for span in spans}
    by_parent: dict[int | None, list[Span]] = {}
    for span in spans:
        key = span.parent_id if span.parent_id in ids else None
        by_parent.setdefault(key, []).append(span)

    def visit(parent_key, depth):
        for span in by_parent.get(parent_key, ()):
            yield span, depth
            yield from visit(span.span_id, depth + 1)

    yield from visit(None, 0)


def render_tree(spans: Sequence[Span]) -> str:
    """The indented span forest with simulated timestamps."""
    if not spans:
        return "(no spans recorded)"
    return "\n".join(
        "  " * depth + _span_line(span) for span, depth in walk_forest(spans)
    )


# -- Chrome trace format ----------------------------------------------------


#: The ``otherData`` block every Chrome-trace document carries.
_CHROME_OTHER_DATA = {"source": "repro.obs", "clock": "simulated"}


def _chrome_event(span: Span) -> dict:
    """One span as a Chrome trace event (complete or instant)."""
    tid = span.site if span.site is not None else -1
    args = {"outcome": span.outcome, "span_id": span.span_id}
    for key, value in span.attrs.items():
        value = _ordered(value)
        if isinstance(value, (list, tuple)):
            value = [str(v) for v in value]
        args[key] = value
    base = {
        "name": span.name,
        "cat": span.kind,
        "pid": 0,
        "tid": tid,
        "ts": span.start * _CHROME_TIME_SCALE,
        "args": args,
    }
    if span.kind == "event" or not span.finished:
        return {**base, "ph": "i", "s": "t"}
    return {**base, "ph": "X", "dur": max(0.0, span.duration) * _CHROME_TIME_SCALE}


def _chrome_process_metadata() -> dict:
    return {
        "name": "process_name",
        "ph": "M",
        "pid": 0,
        "tid": 0,
        "ts": 0,
        "args": {"name": "repro simulated cluster"},
    }


def _chrome_thread_metadata(tid: int) -> dict:
    label = "coordinator" if tid < 0 else f"site {tid}"
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": 0,
        "tid": tid,
        "ts": 0,
        "args": {"name": label},
    }


def to_chrome_trace(spans: Sequence[Span]) -> str:
    """The span forest as Chrome trace-event JSON.

    Durations use complete events (``ph: "X"``); zero-length point
    markers become instant events (``ph: "i"``).  ``tid`` is the span's
    site (-1 for site-less spans such as transactions), so
    ``chrome://tracing`` lays sites out as separate tracks.  Metadata
    events (``ph: "M"``) name the process and each site track, so the
    viewer shows "site 2" instead of a bare tid.
    """
    events = [_chrome_event(span) for span in spans]
    tids = sorted({event["tid"] for event in events})
    metadata = [_chrome_process_metadata()]
    metadata.extend(_chrome_thread_metadata(tid) for tid in tids)
    document = {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": dict(_CHROME_OTHER_DATA),
    }
    return json.dumps(document, indent=2)


# -- streaming writers ------------------------------------------------------


class JsonlStreamWriter(TraceListener):
    """Flush each span as one JSONL line the moment it closes.

    Attach to a tracer with :meth:`~repro.obs.trace.Tracer.add_listener`;
    the produced stream is line-for-line identical to :func:`to_jsonl`
    over the same spans (in close order rather than creation order),
    and :func:`parse_jsonl` reads it back.
    """

    def __init__(self, handle: IO[str]):
        self._handle = handle
        self.spans_written = 0

    def on_span_end(self, span: Span) -> None:
        self._handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        self.spans_written += 1

    def close(self) -> None:
        """Flush buffered output (the handle itself stays open)."""
        self._handle.flush()


class ChromeTraceStreamWriter(TraceListener):
    """Incrementally write a Chrome trace document, one event per close.

    The document envelope (``otherData``, ``displayTimeUnit``, the
    ``traceEvents`` opening bracket) is written up front; each closing
    span appends one event built by the same helper the batch exporter
    uses, and per-track metadata is emitted the first time a track
    (site) appears.  :meth:`close` terminates the array and object —
    until then the file is a truncated-but-recoverable JSON prefix,
    which is the normal trade of streaming trace writers.
    """

    def __init__(self, handle: IO[str]):
        self._handle = handle
        self._seen_tids: set[int] = set()
        self._events_written = 0
        #: Span events flushed (excludes process/thread metadata events).
        self.spans_written = 0
        self._closed = False
        handle.write(
            '{"displayTimeUnit": "ms", "otherData": '
            + json.dumps(_CHROME_OTHER_DATA, sort_keys=True)
            + ', "traceEvents": [\n'
        )
        self._append(_chrome_process_metadata())

    def _append(self, event: dict) -> None:
        prefix = ",\n" if self._events_written else ""
        self._handle.write(prefix + json.dumps(event))
        self._events_written += 1

    def on_span_end(self, span: Span) -> None:
        if self._closed:
            return
        tid = span.site if span.site is not None else -1
        if tid not in self._seen_tids:
            self._seen_tids.add(tid)
            self._append(_chrome_thread_metadata(tid))
        self._append(_chrome_event(span))
        self.spans_written += 1

    def close(self) -> None:
        """Terminate the JSON document; further spans are ignored."""
        if not self._closed:
            self._closed = True
            self._handle.write("\n]}\n")
            self._handle.flush()


#: Formats that support incremental stream-flushing.
STREAM_WRITERS = {
    "jsonl": JsonlStreamWriter,
    "chrome": ChromeTraceStreamWriter,
}


def open_stream_writer(fmt: str, handle: IO[str]) -> TraceListener:
    """A stream-flushing writer for ``fmt`` ('jsonl' or 'chrome')."""
    try:
        writer = STREAM_WRITERS[fmt]
    except KeyError:
        raise ValueError(
            f"format {fmt!r} cannot stream; choose from {sorted(STREAM_WRITERS)}"
        ) from None
    return writer(handle)


EXPORTERS = {
    "jsonl": to_jsonl,
    "tree": render_tree,
    "chrome": to_chrome_trace,
}


def export(spans: Sequence[Span], fmt: str) -> str:
    """Dispatch on format name ('jsonl', 'tree', 'chrome')."""
    try:
        exporter = EXPORTERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown trace format {fmt!r}; choose from {sorted(EXPORTERS)}"
        ) from None
    return exporter(spans)
