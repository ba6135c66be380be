"""Unit tests for views (merged quorum logs + status)."""

import pytest

from repro.clocks.timestamps import Timestamp
from repro.histories.events import event, ok
from repro.replication.log import Log, LogEntry
from repro.replication.serialcache import BeginOrderCache
from repro.replication.view import View
from repro.txn.ids import ActionId
from repro.txn.manager import TransactionManager


@pytest.fixture()
def system():
    """A TM with three transactions: A committed, B committed, C active.

    Commit order is B then A (A began first but committed second).
    """
    tm = TransactionManager()
    a = tm.begin()
    b = tm.begin()
    c = tm.begin()
    entries = [
        LogEntry(Timestamp(10, 0), event("Enq", ("x",)), a.id),
        LogEntry(Timestamp(11, 0), event("Enq", ("y",)), b.id),
        LogEntry(Timestamp(12, 0), event("Enq", ("z",)), c.id),
    ]
    tm.commit(b)
    tm.commit(a)
    return tm, (a, b, c), Log(entries)


class TestClassification:
    def test_committed_in_commit_order(self, system):
        tm, (a, b, c), log = system
        view = View(log, tm)
        assert view.committed_actions() == (b.id, a.id)

    def test_active_listed(self, system):
        tm, (a, b, c), log = system
        view = View(log, tm)
        assert view.active_actions() == (c.id,)

    def test_events_of(self, system):
        tm, (a, _b, _c), log = system
        view = View(log, tm)
        assert view.events_of(a.id) == (event("Enq", ("x",)),)


class TestSerializations:
    def test_commit_order_serial(self, system):
        tm, (a, b, c), log = system
        view = View(log, tm)
        assert view.commit_order_serial() == (
            event("Enq", ("y",)),
            event("Enq", ("x",)),
        )

    def test_commit_order_serial_with_own_last(self, system):
        tm, (a, b, c), log = system
        view = View(log, tm)
        serial = view.commit_order_serial(own=c.id)
        assert serial[-1] == event("Enq", ("z",))

    def test_own_committed_events_moved_last(self, system):
        tm, (a, b, _c), log = system
        view = View(log, tm)
        serial = view.commit_order_serial(own=b.id)
        # b's event appears last even though b committed first.
        assert serial == (event("Enq", ("x",)), event("Enq", ("y",)))

    def test_begin_order_split(self, system):
        tm, (a, b, c), log = system
        marks = BeginOrderCache().checkpoints(View(log, tm))
        # Both committed actions began before C, A first (begin order,
        # although B committed first).
        assert marks.position(c.begin_ts) == 2
        assert marks.rows == [
            (a.begin_ts, a.id, (event("Enq", ("x",)),)),
            (b.begin_ts, b.id, (event("Enq", ("y",)),)),
        ]

    def test_begin_order_split_with_later_action(self, system):
        tm, (a, b, _c), log = system
        marks = BeginOrderCache().checkpoints(View(log, tm))
        # Nothing began before A; B's group is the suffix behind it.
        assert marks.position(a.begin_ts) == 0
        assert marks.position(b.begin_ts) == 1

    def test_max_timestamp(self, system):
        tm, _txns, log = system
        assert View(log, tm).max_timestamp() == Timestamp(12, 0)
        assert View(Log(), tm).max_timestamp() is None


class TestAbortFiltering:
    def test_aborted_entries_invisible(self, system):
        tm, (a, b, c), log = system
        tm.abort(c)
        view = View(log, tm)
        assert view.active_actions() == ()
        assert view.commit_order_serial() == (
            event("Enq", ("y",)),
            event("Enq", ("x",)),
        )
