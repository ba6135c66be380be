"""The observability layer: spans, metrics, profiling, exporters.

The span-tree tests drive the *real* replicated system (a traced
cluster running a seeded workload) and assert structural invariants of
whatever trace comes out — well-nested intervals, per-site monotone
timestamps, the transaction → operation → quorum → rpc hierarchy —
rather than golden outputs, so they hold for any seed.
"""

from __future__ import annotations

import json

import pytest

from repro.histories.events import Invocation
from repro.obs import (
    Histogram,
    KernelProfiler,
    MetricsRegistry,
    NULL_SPAN,
    NULL_TRACER,
    Span,
    TraceListener,
    Tracer,
    parse_jsonl,
    percentile,
    render_tree,
    to_chrome_trace,
    to_jsonl,
)
from repro.sim.failures import CrashInjector
from repro.sim.kernel import Simulator
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.types import Queue
from tests.helpers import cluster_of, hybrid_queue

pytestmark = pytest.mark.obs


def traced_run(seed=3, sites=3, transactions=10, crashes=False):
    """Run the standard queue workload with tracing on."""
    tracer = Tracer()
    cluster = cluster_of(sites, hybrid_queue(), seed=seed, tracer=tracer)
    if crashes:
        CrashInjector(cluster.network, 50.0, 10.0).install()
    mix = OperationMix.uniform("queue", Queue().invocations())
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        mix,
        ops_per_transaction=2,
        concurrency=3,
    )
    metrics = generator.run(transactions)
    return tracer, cluster, metrics


@pytest.fixture(scope="module")
def traced():
    return traced_run()


@pytest.fixture(scope="module")
def traced_with_failures():
    return traced_run(seed=7, sites=5, transactions=25, crashes=True)


class TestSpanTree:
    def test_hierarchy_kinds_nest_correctly(self, traced):
        tracer, _cluster, _metrics = traced
        by_id = {span.span_id: span for span in tracer.spans}
        expected_parent_kind = {
            "operation": "transaction",
            "quorum": "operation",
            "rpc": "quorum",
        }
        seen = set()
        for span in tracer.spans:
            want = expected_parent_kind.get(span.kind)
            if want is None:
                continue
            assert span.parent_id is not None, f"{span.name} has no parent"
            assert by_id[span.parent_id].kind == want
            seen.add(span.kind)
        assert seen == {"operation", "quorum", "rpc"}

    def test_children_within_parent_interval(self, traced):
        tracer, _cluster, _metrics = traced
        by_id = {span.span_id: span for span in tracer.spans}
        for span in tracer.finished_spans():
            if span.parent_id is None:
                continue
            parent = by_id[span.parent_id]
            assert parent.start <= span.start
            assert parent.end is None or span.end <= parent.end

    def test_all_spans_closed_and_ordered(self, traced):
        tracer, _cluster, _metrics = traced
        assert tracer.spans
        for span in tracer.spans:
            assert span.finished, f"span {span.name} left open"
            assert span.end >= span.start

    def test_timestamps_monotone_per_site(self, traced):
        tracer, _cluster, _metrics = traced
        last_start: dict[int, float] = {}
        for span in tracer.spans:  # creation order
            if span.site is None:
                continue
            assert span.start >= last_start.get(span.site, 0.0)
            last_start[span.site] = span.start

    def test_operation_spans_carry_protocol_attributes(self, traced):
        tracer, _cluster, _metrics = traced
        ok_ops = [
            s for s in tracer.spans if s.kind == "operation" and s.outcome == "ok"
        ]
        assert ok_ops
        for span in ok_ops:
            assert span.attrs["op"] in ("Enq", "Deq")
            assert span.attrs["object"] == "queue"
            assert "entry_ts" in span.attrs
        quorums = [s for s in tracer.spans if s.kind == "quorum" and s.outcome == "ok"]
        assert quorums and all("quorum" in s.attrs for s in quorums)

    def test_transaction_outcomes_match_manager_counts(self, traced):
        tracer, cluster, _metrics = traced
        txns = [s for s in tracer.spans if s.kind == "transaction"]
        committed = sum(1 for s in txns if s.outcome == "committed")
        aborted = sum(1 for s in txns if s.outcome == "aborted")
        assert committed == cluster.tm.commits
        assert aborted == cluster.tm.aborts

    def test_failures_produce_timeout_and_crash_records(self, traced_with_failures):
        tracer, _cluster, metrics = traced_with_failures
        names = {span.name for span in tracer.spans}
        assert "site.crash" in names
        rpc_outcomes = {s.outcome for s in tracer.spans if s.kind == "rpc"}
        assert "timeout" in rpc_outcomes
        # Unavailability shows up as quorum spans that name the missing sites.
        unavailable = [
            s
            for s in tracer.spans
            if s.kind == "quorum" and s.outcome == "unavailable"
        ]
        if metrics.count("Enq", "unavailable") or metrics.count("Deq", "unavailable"):
            assert unavailable and all("missing" in s.attrs for s in unavailable)


class TestNullTracer:
    def test_records_nothing_and_returns_null_span(self):
        with NULL_TRACER.span("operation", op="Enq") as span:
            assert span is NULL_SPAN
            span.annotate(anything="goes")
        assert NULL_TRACER.event("site.crash", site=1) is NULL_SPAN
        assert NULL_TRACER.spans == ()
        assert NULL_SPAN.attrs == {}

    def test_default_cluster_is_untraced(self):
        cluster = cluster_of(3, hybrid_queue(), seed=0)
        assert cluster.tracer is NULL_TRACER
        txn = cluster.tm.begin(0)
        cluster.frontends[0].execute(txn, "queue", Invocation("Enq", ("x",)))
        cluster.tm.commit(txn)
        assert cluster.tracer.spans == ()
        assert cluster.tm.transaction_span(txn.id) is None


class _Tap(TraceListener):
    """Records what it is handed, as ``(hook, span_id, kind, retained)``."""

    def __init__(self, tracer, kinds=None, starts=True):
        self.tracer, self.span_kinds, self.seen = tracer, kinds, []
        if starts:
            self.on_span_start = lambda span: self._note("start", span)

    def _note(self, hook, span):
        self.seen.append((hook, span.span_id, span.kind, span in self.tracer.spans))

    def on_span_end(self, span):
        self._note("end", span)


def _emit(tracer):
    """A fixed little forest: every kind the runtime emits plus an unknown one."""
    with tracer.span("txn", kind="transaction"):
        with tracer.span("op", kind="operation"):
            probe = tracer.start_span("rpc", kind="rpc")
            tracer.event("repo.write", site=1)
            with tracer.span("quorum", kind="quorum"):
                pass
            tracer.end_span(probe, "timeout")
        tracer.event("site.crash", site=0)
    with tracer.span("other"):  # kind "span": nobody names it
        pass


#: ``_emit``'s stream: (hook, span id, kind) in the order the tracer fires them.
_EMITTED = [
    ("start", 1, "transaction"), ("start", 2, "operation"), ("start", 3, "rpc"),
    ("start", 4, "event"), ("end", 4, "event"), ("start", 5, "quorum"),
    ("end", 5, "quorum"), ("end", 3, "rpc"), ("end", 2, "operation"),
    ("start", 6, "event"), ("end", 6, "event"), ("end", 1, "transaction"),
    ("start", 7, "span"), ("end", 7, "span"),
]


class TestListenerRouting:
    @pytest.mark.parametrize("retention", ["all", "ring", "consume"])
    def test_interest_free_listener_sees_every_start_and_close_in_order(self, retention):
        tracer = Tracer(retention=retention, window=3)
        tap = _Tap(tracer)
        tracer.add_listener(tap)
        _emit(tracer)
        assert [entry[:3] for entry in tap.seen] == _EMITTED
        assert tracer.closed == sum(1 for entry in tap.seen if entry[0] == "end") == 7
        if retention == "consume":
            # Released only after delivery: still retained inside the
            # close hook, gone once every close has been handed out.
            assert all(retained for *_entry, retained in tap.seen)
            assert tracer.retained_spans == 0

    @pytest.mark.parametrize("first", ["narrow", "wide"])
    def test_kind_restricted_listener_sees_exactly_its_kinds(self, first):
        tracer = Tracer()
        narrow = _Tap(tracer, kinds=frozenset({"quorum", "event"}), starts=False)
        wide = _Tap(tracer, starts=False)
        for tap in (narrow, wide) if first == "narrow" else (wide, narrow):
            tracer.add_listener(tap)
        _emit(tracer)
        closes = [entry for entry in _EMITTED if entry[0] == "end"]
        assert [entry[:3] for entry in wide.seen] == closes
        assert [entry[:3] for entry in narrow.seen] == [
            entry for entry in closes if entry[2] in ("quorum", "event")
        ]

    def test_registration_order_is_dispatch_order_within_a_kind(self):
        tracer, order = Tracer(), []

        class Named(TraceListener):
            def __init__(self, label, kinds):
                self.label, self.span_kinds = label, kinds

            def on_span_end(self, span):
                order.append((self.label, span.kind))

        for label, kinds in (("a", None), ("b", frozenset({"rpc"})), ("c", None)):
            tracer.add_listener(Named(label, kinds))
        tracer.end_span(tracer.start_span("rpc", kind="rpc"))
        tracer.event("site.crash")
        assert order == [
            ("a", "rpc"), ("b", "rpc"), ("c", "rpc"), ("a", "event"), ("c", "event"),
        ]

    def test_base_on_span_start_is_not_called(self):
        tracer = Tracer()
        tap = _Tap(tracer, starts=False)
        tracer.add_listener(tap)
        assert tracer._start_hooks == ()
        _emit(tracer)
        assert {entry[0] for entry in tap.seen} == {"end"}

    def test_add_and_remove_mid_run_reroute(self):
        tracer = Tracer()
        early = _Tap(tracer, kinds=frozenset({"rpc"}), starts=False)
        late = _Tap(tracer, starts=False)
        tracer.add_listener(early)
        probe = tracer.start_span("rpc", kind="rpc")
        tracer.add_listener(late)
        tracer.end_span(probe)  # both: routed when it closes, not when it opened
        tracer.remove_listener(early)
        tracer.end_span(tracer.start_span("rpc", kind="rpc"))
        tracer.remove_listener(late)
        tracer.event("site.crash")
        assert [entry[1] for entry in early.seen] == [1]
        assert [entry[1] for entry in late.seen] == [1, 2]
        assert tracer.closed == 3

    def test_closed_counts_events_and_survives_clear(self):
        tracer = Tracer(retention="ring", window=2)
        tap = _Tap(tracer, starts=False)
        tracer.add_listener(tap)
        _emit(tracer)
        tracer.clear()
        _emit(tracer)
        open_span = tracer.start_span("never-closed")
        assert tracer.closed == len(tap.seen) == 14
        assert open_span.end is None
        tracer.end_span(open_span)
        tracer.end_span(open_span)  # a second close is not a close
        assert tracer.closed == len(tap.seen) == 15
        assert NULL_TRACER.closed == 0


class TestExporters:
    def test_jsonl_round_trip(self, traced):
        tracer, _cluster, _metrics = traced
        recovered = parse_jsonl(to_jsonl(tracer.spans))
        assert len(recovered) == len(tracer.spans)
        assert [s.to_dict() for s in recovered] == [
            s.to_dict() for s in tracer.spans
        ]

    def test_tree_rendering_indents_children(self, traced):
        tracer, _cluster, _metrics = traced
        text = render_tree(tracer.spans)
        lines = text.splitlines()
        assert any(line.startswith("transaction ") for line in lines)
        assert any(line.startswith("  operation ") for line in lines)
        assert any(line.startswith("    quorum.") for line in lines)
        assert any(line.startswith("      rpc ") for line in lines)

    def test_chrome_trace_is_valid_and_complete(self, traced):
        tracer, _cluster, _metrics = traced
        document = json.loads(to_chrome_trace(tracer.spans))
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        events = [e for e in document["traceEvents"] if e["ph"] != "M"]
        assert len(events) == len(tracer.spans)
        for entry in events:
            assert entry["ph"] in ("X", "i")
            assert "ts" in entry and "name" in entry
            if entry["ph"] == "X":
                assert entry["dur"] >= 0
        # Metadata names the process and every track (one per tid used).
        assert {e["name"] for e in metadata} == {"process_name", "thread_name"}
        named_tids = {
            e["tid"] for e in metadata if e["name"] == "thread_name"
        }
        assert named_tids == {e["tid"] for e in events}
        assert all(e["ts"] == 0 for e in metadata)
        labels = {
            e["tid"]: e["args"]["name"]
            for e in metadata
            if e["name"] == "thread_name"
        }
        assert all(
            label == ("coordinator" if tid < 0 else f"site {tid}")
            for tid, label in labels.items()
        )

    def test_chrome_metadata_labels_siteless_spans(self):
        tracer = Tracer()
        with tracer.span("transaction", kind="transaction"):
            pass
        document = json.loads(to_chrome_trace(tracer.spans))
        labels = {
            e["tid"]: e["args"]["name"]
            for e in document["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert labels == {-1: "coordinator"}

    def test_empty_forest_renders(self):
        assert render_tree(()) == "(no spans recorded)"
        assert parse_jsonl("") == []


class TestMetricsRegistry:
    def test_percentiles_interpolate(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50) == pytest.approx(50.5)
        assert percentile(samples, 95) == pytest.approx(95.05)
        assert percentile(samples, 0) == 1
        assert percentile(samples, 100) == 100

    def test_histogram_summary_exposes_tail(self):
        hist = Histogram("latency")
        for value in [1.0] * 98 + [50.0, 100.0]:
            hist.observe(value)
        summary = hist.summary()
        assert summary["p50"] == pytest.approx(1.0)
        assert summary["p99"] > 40.0
        assert summary["max"] == 100.0
        assert summary["mean"] < 3.0  # the mean hides the tail — that's the point

    def test_empty_histogram_summary_is_finite(self):
        import math

        hist = Histogram("untouched")
        summary = hist.summary()
        assert summary == {
            "count": 0.0,
            "mean": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
            "max": 0.0,
        }
        # The raw properties keep the NaN convention for "no samples".
        assert math.isnan(hist.mean) and math.isnan(hist.max)
        assert math.isnan(hist.p50)
        # render() and to_dict() must survive an empty histogram.
        registry = MetricsRegistry()
        registry.histogram("untouched")
        assert "untouched" in registry.render()
        assert registry.to_dict()["histograms"]["untouched"]["p99"] == 0.0
        assert "nan" not in json.dumps(registry.to_dict()).lower()

    def test_single_sample_histogram_summary(self):
        hist = Histogram("one")
        hist.observe(4.25)
        summary = hist.summary()
        assert summary["count"] == 1.0
        for key in ("mean", "p50", "p95", "p99", "max"):
            assert summary[key] == 4.25

    def test_recorder_table_handles_operation_without_samples(self):
        from repro.sim.metrics import MetricRecorder

        recorder = MetricRecorder()
        recorder.record("Enq", "ok", latency=2.0)
        recorder.record("Deq", "unavailable")  # no latency sample
        table = recorder.table()
        assert "p50" in table  # latency columns present (Enq has samples)
        assert "nan" not in table.lower()

    def test_registry_instruments_are_singletons_per_name(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(2)
        assert registry.counter("a").value == 3
        registry.gauge("g").set(4.5)
        registry.histogram("h").observe(1.0)
        with pytest.raises(ValueError):
            registry.histogram("a")
        snapshot = registry.to_dict()
        assert snapshot["counters"] == {"a": 3}
        assert snapshot["gauges"] == {"g": 4.5}
        assert snapshot["histograms"]["h"]["count"] == 1.0
        assert "a" in registry.render()

    def test_workload_metrics_flow_into_registry(self, traced):
        _tracer, _cluster, metrics = traced
        registry = metrics.registry
        ok_total = sum(
            counter.value
            for name, counter in registry.counters.items()
            if name.endswith(".ok")
        )
        assert ok_total == metrics.count("Enq", "ok") + metrics.count("Deq", "ok")
        summary = metrics.summary()
        for op in metrics.operations():
            assert "latency_p99" in summary[op]
            assert summary[op]["latency_p99"] >= summary[op]["latency_p50"]


class TestKernelProfiler:
    def test_accounts_dispatched_callbacks(self):
        profiler = KernelProfiler()
        sim = Simulator(seed=0, profiler=profiler)

        def tick():
            pass

        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, tick)
        sim.run()
        assert profiler.dispatched == 3
        (stats,) = [s for s in profiler.stats.values()]
        assert stats.calls == 3
        assert stats.wall_seconds >= 0.0
        assert profiler.queue_depth.count == 3
        assert "tick" in profiler.report()
        assert "queue depth" in profiler.report()

    def test_off_by_default(self):
        sim = Simulator(seed=0)
        assert sim.profiler is None
        sim.schedule(1.0, lambda: None)
        assert sim.run() == 1
