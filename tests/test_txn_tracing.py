"""Tracing of transaction abort and deadlock-detection paths.

The happy path (begin → operations → commit) is covered by
``test_obs.py``; these tests pin down the unhappy branches: client
aborts, commit-time vetoes, lock-wait conflicts, and waits-for-graph
deadlock victims must all leave *well-formed closed spans* — finished,
correctly-outcomed, with the reason recorded — and the NullTracer path
must stay allocation-free through the same branches.
"""

from __future__ import annotations

import pytest

from repro.errors import ConflictError
from repro.histories.events import Invocation
from repro.obs.trace import NULL_SPAN, NULL_TRACER, Tracer
from repro.replication.keyspace import ObjectSpec
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.txn.deadlock import WaitsForGraph
from repro.types import Queue
from tests.helpers import cluster_of

pytestmark = pytest.mark.obs


def traced_cluster(objects=("a",), scheme="dynamic", sites=3, seed=0):
    tracer = Tracer()
    specs = (ObjectSpec(name, Queue(), scheme) for name in objects)
    cluster = cluster_of(sites, *specs, seed=seed, tracer=tracer)
    return tracer, cluster


def transaction_span(tracer, txn):
    spans = [
        s
        for s in tracer.spans
        if s.name == "transaction" and s.attrs.get("txn") == str(txn.id)
    ]
    assert len(spans) == 1
    return spans[0]


class TestAbortTracing:
    def test_client_abort_closes_span_with_reason(self):
        tracer, cluster = traced_cluster()
        txn = cluster.tm.begin(0)
        cluster.frontends[0].execute(txn, "a", Invocation("Enq", ("x",)))
        assert cluster.tm.transaction_span(txn.id) is not None
        cluster.tm.abort(txn, reason="client gave up")
        span = transaction_span(tracer, txn)
        assert span.finished
        assert span.outcome == "aborted"
        assert span.attrs["reason"] == "client gave up"
        assert span.attrs["objects"] == ["a"]
        # The manager forgets the span once it closes.
        assert cluster.tm.transaction_span(txn.id) is None

    def test_abort_span_well_nested_over_children(self):
        tracer, cluster = traced_cluster()
        txn = cluster.tm.begin(0)
        cluster.frontends[0].execute(txn, "a", Invocation("Enq", ("x",)))
        cluster.tm.abort(txn, reason="test")
        parent = transaction_span(tracer, txn)
        children = [s for s in tracer.spans if s.parent_id == parent.span_id]
        assert children, "operation spans must parent under the transaction"
        for child in children:
            assert child.finished
            assert child.end <= parent.end

    def test_every_span_closes_even_when_workload_aborts(self):
        # A dynamic-locking workload under contention exercises the
        # conflict/deadlock/abort branches of the driver; whatever
        # happened, no span may be left open and every transaction span
        # must carry a commit or abort outcome.
        tracer, cluster = traced_cluster(seed=5)
        queue = cluster.tm.object("a").datatype
        mix = OperationMix.uniform("a", queue.invocations())
        generator = WorkloadGenerator(
            cluster.sim,
            cluster.tm,
            cluster.frontends,
            mix,
            ops_per_transaction=3,
            concurrency=4,
        )
        metrics = generator.run(12)
        assert all(span.finished for span in tracer.spans)
        txn_spans = [s for s in tracer.spans if s.kind == "transaction"]
        assert len(txn_spans) >= 12
        assert {s.outcome for s in txn_spans} <= {"committed", "aborted"}
        aborted = [s for s in txn_spans if s.outcome == "aborted"]
        assert len(aborted) == metrics.aborted_transactions
        assert all("reason" in s.attrs for s in aborted)


class TestDeadlockTracing:
    def build_deadlock(self):
        """Two transactions crossing on two locked objects.

        Queue enqueues do not commute (their order is observable via
        later dequeues), so under the dynamic (2PL) scheme t1 holds
        object ``a``, t2 holds object ``b``, and each one's second
        operation conflicts with the other — the canonical waits-for
        cycle.
        """
        tracer, cluster = traced_cluster(objects=("a", "b"))
        fe = cluster.frontends[0]
        t1 = cluster.tm.begin(0)
        t2 = cluster.tm.begin(1)
        fe.execute(t1, "a", Invocation("Enq", ("x",)))
        fe.execute(t2, "b", Invocation("Enq", ("y",)))
        return tracer, cluster, fe, t1, t2

    def test_lock_conflict_span_records_wait(self):
        tracer, _cluster, fe, t1, t2 = self.build_deadlock()
        with pytest.raises(ConflictError) as excinfo:
            fe.execute(t1, "b", Invocation("Enq", ("z",)))
        assert excinfo.value.holder == t2.id
        assert not excinfo.value.fatal
        conflicted = [s for s in tracer.spans if s.outcome == "conflict"]
        assert conflicted
        for span in conflicted:
            assert span.finished
            assert span.attrs["conflict_kind"] == "wait"

    def test_deadlock_victim_span_closes_aborted(self):
        tracer, cluster, fe, t1, t2 = self.build_deadlock()
        waits = WaitsForGraph()
        with pytest.raises(ConflictError) as first:
            fe.execute(t1, "b", Invocation("Enq", ("z",)))
        assert waits.add_wait(t1.id, first.value.holder)  # t1 → t2: no cycle
        with pytest.raises(ConflictError) as second:
            fe.execute(t2, "a", Invocation("Enq", ("w",)))
        assert second.value.holder == t1.id
        # t2 → t1 closes the cycle: the driver aborts the requester.
        assert not waits.add_wait(t2.id, second.value.holder)
        cluster.tm.abort(t2, reason="deadlock victim")
        waits.remove(t2.id)
        victim = transaction_span(tracer, t2)
        assert victim.finished
        assert victim.outcome == "aborted"
        assert victim.attrs["reason"] == "deadlock victim"
        # The survivor can still commit, closing its span cleanly.
        cluster.tm.commit(t1)
        survivor = transaction_span(tracer, t1)
        assert survivor.outcome == "committed"
        assert all(span.finished for span in tracer.spans)


class TestNullTracerStaysFree:
    def test_abort_and_deadlock_paths_record_nothing(self):
        cluster = cluster_of(
            3, *(ObjectSpec(name, Queue(), "dynamic") for name in ("a", "b")), seed=0
        )
        assert cluster.tracer is NULL_TRACER
        fe = cluster.frontends[0]
        t1 = cluster.tm.begin(0)
        t2 = cluster.tm.begin(1)
        fe.execute(t1, "a", Invocation("Enq", ("x",)))
        fe.execute(t2, "b", Invocation("Enq", ("y",)))
        with pytest.raises(ConflictError):
            fe.execute(t1, "b", Invocation("Enq", ("z",)))
        cluster.tm.abort(t2, reason="deadlock victim")
        cluster.tm.commit(t1)
        # Nothing was recorded and no per-transaction span state exists.
        assert NULL_TRACER.spans == ()
        assert cluster.tm.transaction_span(t1.id) is None
        assert cluster.tm.transaction_span(t2.id) is None
        assert cluster.tm._txn_spans == {}

    def test_null_spans_are_the_shared_singleton(self):
        with NULL_TRACER.span("operation", op="Enq") as span:
            assert span is NULL_SPAN
        assert NULL_TRACER.start_span("transaction") is NULL_SPAN
        assert NULL_TRACER.event("repo.write", site=0) is NULL_SPAN
