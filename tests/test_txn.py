"""Unit tests for the transaction manager and deadlock detection."""

import pytest

from repro.errors import TransactionAborted, TransactionError
from repro.histories.events import Invocation, event, ok
from repro.txn.deadlock import WaitsForGraph
from repro.txn.ids import ActionId, TxnStatus
from repro.txn.manager import TransactionManager
from tests.helpers import queue_system


class TestLifecycle:
    def test_begin_assigns_increasing_timestamps(self):
        tm = TransactionManager()
        first, second = tm.begin(), tm.begin()
        assert first.begin_ts < second.begin_ts
        assert first.id != second.id

    def test_commit_assigns_commit_timestamp(self):
        tm = TransactionManager()
        txn = tm.begin()
        tm.commit(txn)
        assert txn.status is TxnStatus.COMMITTED
        assert txn.commit_ts is not None
        assert txn.commit_ts > txn.begin_ts

    def test_commit_order_independent_of_begin_order(self):
        tm = TransactionManager()
        first, second = tm.begin(), tm.begin()
        tm.commit(second)
        tm.commit(first)
        assert second.commit_ts < first.commit_ts

    def test_abort_records_reason(self):
        tm = TransactionManager()
        txn = tm.begin()
        tm.abort(txn, reason="client gave up")
        assert txn.status is TxnStatus.ABORTED
        assert txn.abort_reason == "client gave up"

    def test_double_commit_rejected(self):
        tm = TransactionManager()
        txn = tm.begin()
        tm.commit(txn)
        with pytest.raises(TransactionError):
            tm.commit(txn)

    def test_commit_after_abort_rejected(self):
        tm = TransactionManager()
        txn = tm.begin()
        tm.abort(txn)
        with pytest.raises(TransactionError):
            tm.commit(txn)

    def test_status_source_protocol(self):
        tm = TransactionManager()
        txn = tm.begin()
        assert tm.status_of(txn.id) is TxnStatus.ACTIVE
        assert tm.begin_ts_of(txn.id) == txn.begin_ts
        assert tm.commit_ts_of(txn.id) is None


class TestRegistry:
    def test_duplicate_object_rejected(self):
        cluster, obj = queue_system("hybrid")
        with pytest.raises(TransactionError):
            cluster.tm.register(obj)

    def test_unknown_object_rejected(self):
        tm = TransactionManager()
        with pytest.raises(TransactionError):
            tm.object("ghost")


class TestTwoPhaseCommit:
    def test_certification_veto_aborts_everywhere(self):
        """Static scheme commit is safe by construction; drive a veto via
        a multi-object transaction where one object's scheme objects."""
        cluster, _obj = queue_system("hybrid")
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", Invocation("Enq", ("a",)))
        cluster.tm.commit(txn)
        assert cluster.tm.commits == 1

    def test_commit_finalizes_sync_state(self):
        cluster, obj = queue_system("hybrid")
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", Invocation("Enq", ("a",)))
        assert txn.id in obj.sync.active_events
        cluster.tm.commit(txn)
        assert txn.id not in obj.sync.active_events
        # Hybrid serializes by commit timestamp: the group's row is keyed
        # by it.
        assert obj.sync.committed.marks.rows == [
            (txn.commit_ts, txn.id, (event("Enq", ("a",)),))
        ]

    def test_abort_discards_sync_state(self):
        cluster, obj = queue_system("hybrid")
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", Invocation("Enq", ("a",)))
        assert txn.id in obj.sync.active_events
        cluster.tm.abort(txn)
        assert txn.id not in obj.sync.active_events
        assert not obj.sync.committed.marks.rows


class TestWaitsForGraph:
    def _ids(self, *seqs):
        return [ActionId(s) for s in seqs]

    def test_simple_wait_allowed(self):
        graph = WaitsForGraph()
        a, b = self._ids(1, 2)
        assert graph.add_wait(a, b)
        assert graph.waiting_on(a) == {b}

    def test_direct_cycle_detected(self):
        graph = WaitsForGraph()
        a, b = self._ids(1, 2)
        graph.add_wait(a, b)
        assert graph.would_deadlock(b, a)
        assert not graph.add_wait(b, a)

    def test_transitive_cycle_detected(self):
        graph = WaitsForGraph()
        a, b, c = self._ids(1, 2, 3)
        graph.add_wait(a, b)
        graph.add_wait(b, c)
        assert not graph.add_wait(c, a)

    def test_self_wait_is_deadlock(self):
        graph = WaitsForGraph()
        (a,) = self._ids(1)
        assert graph.would_deadlock(a, a)

    def test_removal_breaks_cycles(self):
        graph = WaitsForGraph()
        a, b, c = self._ids(1, 2, 3)
        graph.add_wait(a, b)
        graph.add_wait(b, c)
        graph.remove(b)
        assert graph.add_wait(c, a)
