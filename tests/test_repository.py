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

    def test_a_write_returns_the_version_before_and_after(self):
        repo = Repository(0)
        first = repo.write_log("q", Log([_entry(1)]))
        second = repo.write_log("q", Log([_entry(2)]))
        assert first[0] == 0 and first[1] > first[0]
        # Nothing else wrote in between: each write starts where the last ended.
        assert second[0] == first[1] and second[1] > second[0]
        assert repo.read_fragment("q")[2] == second[1]

    def test_a_write_that_adds_nothing_leaves_the_version(self):
        repo = Repository(0)
        update = Log([_entry(1)])
        _before, version = repo.write_log("q", update)
        assert repo.write_log("q", update) == (version, version)
        assert repo.write_log("q", Log()) == (version, version)
        # Versions are per object: another object's write moves only its own.
        repo.write_log("other", Log([_entry(2)]))
        assert repo.read_fragment("q")[2] == version

    def test_a_fragment_read_is_one_served_read_of_all_three(self):
        repo = Repository(0)
        assert repo.read_fragment("q") == (Log(), None, 0)
        _before, version = repo.write_log("q", Log([_entry(1)]))
        log, snapshot, seen = repo.read_fragment("q")
        assert (log, snapshot, seen) == (repo.read_log("q"), repo.read_snapshot("q"), version)
        assert repo.reads_served == 3
