"""Unit tests for repositories (stable per-site storage)."""

from repro.clocks.timestamps import Timestamp
from repro.histories.events import event
from repro.replication.log import Log, LogEntry
from repro.replication.repository import Repository
from repro.txn.ids import ActionId


def _entry(counter: int) -> LogEntry:
    return LogEntry(Timestamp(counter, 0), event("Enq", ("a",)), ActionId(1, 0))


class TestRepository:
    def test_empty_log_for_unknown_object(self):
        repo = Repository(0)
        assert len(repo.read_log("ghost")) == 0

    def test_write_then_read(self):
        repo = Repository(0)
        repo.write_log("q", Log([_entry(1)]))
        assert len(repo.read_log("q")) == 1

    def test_writes_merge_not_replace(self):
        repo = Repository(0)
        repo.write_log("q", Log([_entry(1)]))
        repo.write_log("q", Log([_entry(2)]))
        assert len(repo.read_log("q")) == 2

    def test_duplicate_writes_idempotent(self):
        repo = Repository(0)
        update = Log([_entry(1)])
        repo.write_log("q", update)
        repo.write_log("q", update)
        assert len(repo.read_log("q")) == 1

    def test_objects_isolated(self):
        repo = Repository(0)
        repo.write_log("q1", Log([_entry(1)]))
        assert len(repo.read_log("q2")) == 0
        assert repo.stored_objects() == ("q1",)

    def test_counters_track_traffic(self):
        repo = Repository(0)
        repo.write_log("q", Log([_entry(1)]))
        repo.read_log("q")
        assert repo.writes_served == 1 and repo.reads_served == 1

    def test_a_write_stores_the_union_and_returns_nothing(self):
        repo = Repository(0)
        assert repo.write_log("q", Log([_entry(1)])) is None
        repo.write_log("q", Log([_entry(2)]))
        assert repo.read_fragment("q") == (Log([_entry(1), _entry(2)]), None)

    def test_a_write_that_adds_nothing_leaves_the_stored_log(self):
        repo = Repository(0)
        update = Log([_entry(1)])
        repo.write_log("q", update)
        stored = repo.peek_log("q")
        repo.write_log("q", update)
        repo.write_log("q", Log())
        assert repo.peek_log("q") is stored
        # Objects are stored apart: another object's write leaves this one.
        repo.write_log("other", Log([_entry(2)]))
        assert repo.peek_log("q") is stored

    def test_a_fragment_read_is_one_served_read_of_both(self):
        repo = Repository(0)
        assert repo.read_fragment("q") == (Log(), None)
        repo.write_log("q", Log([_entry(1)]))
        log, snapshot = repo.read_fragment("q")
        assert (log, snapshot) == (repo.read_log("q"), repo.read_snapshot("q"))
        assert log == Log([_entry(1)]) and snapshot is None
        assert repo.reads_served == 3
