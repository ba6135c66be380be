"""Unit and property tests for replicated logs (merge is a join)."""

import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.timestamps import Timestamp
from repro.histories.events import event, ok
from repro.replication.log import EMPTY_LOG, Log, LogEntry, _Table
from repro.replication.repository import Repository
from repro.resilience.recovery import SiteJournal
from repro.txn.ids import ActionId


def _entry(counter: int, site: int = 0, op: str = "Enq", seq: int = 1) -> LogEntry:
    return LogEntry(Timestamp(counter, site), event(op, ("a",)), ActionId(seq, site))


entries_strategy = st.lists(
    st.builds(
        _entry,
        counter=st.integers(1, 20),
        site=st.integers(0, 3),
        seq=st.integers(1, 5),
    ),
    max_size=12,
).map(Log)


class TestLogBasics:
    def test_ordered_by_timestamp(self):
        log = Log([_entry(5), _entry(2), _entry(9)])
        counters = [e.ts.counter for e in log.ordered()]
        assert counters == sorted(counters)

    def test_add_is_persistent(self):
        base = Log()
        extended = base.add(_entry(1))
        assert len(base) == 0 and len(extended) == 1

    def test_entries_of_action(self):
        log = Log([_entry(1, seq=1), _entry(2, seq=2), _entry(3, seq=1)])
        assert len(log.entries_of(ActionId(1, 0))) == 2

    def test_actions(self):
        log = Log([_entry(1, seq=1), _entry(2, seq=2)])
        assert log.actions() == {ActionId(1, 0), ActionId(2, 0)}

    def test_contains_and_iter(self):
        entry = _entry(1)
        log = Log([entry])
        assert entry in log
        assert list(log) == [entry]


class TestMergeLaws:
    """Merge must be a join: idempotent, commutative, associative — the
    properties that make a view independent of how its quorum logs were
    combined."""

    @given(entries_strategy)
    def test_idempotent(self, log):
        assert log.merge(log) == log

    @given(entries_strategy, entries_strategy)
    def test_commutative(self, first, second):
        assert first.merge(second) == second.merge(first)

    @given(entries_strategy, entries_strategy, entries_strategy)
    def test_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(entries_strategy, entries_strategy)
    def test_merge_is_an_upper_bound(self, first, second):
        merged = first.merge(second)
        for entry in first:
            assert entry in merged
        for entry in second:
            assert entry in merged

    @given(entries_strategy)
    def test_merge_with_empty_is_identity(self, log):
        assert log.merge(Log()) == log


class TestExtensionLineage:
    """fresh_since recovers exact deltas between logs on one table."""

    def test_single_link_returns_the_fresh_entries(self):
        base = Log([_entry(1), _entry(2)])
        grown = base.extended([_entry(3), _entry(4)])
        delta = grown.fresh_since(base)
        assert delta is not None
        assert frozenset(delta) == grown.entry_set - base.entry_set

    def test_multi_link_chain_concatenates_in_order(self):
        base = Log([_entry(1)])
        node = base
        for counter in range(2, 12):
            node = node.extended([_entry(counter)])
        delta = node.fresh_since(base)
        assert delta is not None
        assert frozenset(delta) == node.entry_set - base.entry_set
        assert len(delta) == 10

    def test_self_is_the_empty_delta(self):
        log = Log([_entry(1)])
        assert log.fresh_since(log) == ()

    def test_a_union_lands_on_the_larger_table(self):
        base = Log([_entry(1), _entry(4)])
        other = Log([_entry(2), _entry(3), _entry(1)])
        merged = base.merge(other)
        # The smaller operand is re-expressed on the larger one's table:
        # from there on the two lineages are one, and a delta is exact.
        assert merged._table is other._table
        assert merged.fresh_since(other) == (_entry(4),)
        assert merged.fresh_since(base) is None  # base is on its own table
        assert other.merge(base) == merged and other.merge(base)._table is other._table
        assert len(base) == 2 and len(other) == 3
        # Equal tables in size: the union stays on the left operand's.
        left, right = Log([_entry(5)]), Log([_entry(6)])
        assert left.merge(right)._table is left._table

    def test_unrelated_ancestor_returns_none(self):
        base = Log([_entry(1)])
        grown = base.extended([_entry(2)])
        stranger = Log([_entry(1)])
        assert grown.fresh_since(stranger) is None

    def test_lineage_has_no_length_cap(self):
        base = Log([_entry(1)])
        node = base
        checkpoints = []
        for counter in range(2, 202):
            node = node.extended([_entry(counter)])
            checkpoints.append(node)
        delta = node.fresh_since(base)
        assert delta is not None and len(delta) == 200
        assert [e.ts.counter for e in delta] == list(range(2, 202))
        middle = checkpoints[99]
        assert len(middle) == 101  # untouched by the hundred appends after it
        assert len(node.fresh_since(middle)) == 100
        assert middle.fresh_since(node) is None  # a prefix has no later entries

    def test_the_empty_log_is_an_ancestor_of_every_log(self):
        log = Log([_entry(2), _entry(1)])
        assert frozenset(log.fresh_since(EMPTY_LOG)) == log.entry_set
        assert frozenset(log.fresh_since(Log())) == log.entry_set
        assert EMPTY_LOG.fresh_since(log) is None

    def test_pickle_drops_lineage_but_preserves_the_log(self):
        base = Log([_entry(1)])
        grown = base.extended([_entry(2)])
        copied = pickle.loads(pickle.dumps(grown))
        assert copied == grown
        assert copied.fresh_since(base) is None  # lineage not shipped


class TestSharedTable:
    """One table per lineage: every version is a mask over it."""

    def test_versions_share_one_table_and_an_older_one_never_changes(self):
        base = Log([_entry(1), _entry(2)])
        assert base.ordered() and base.entries_of(ActionId(1, 0))  # build both
        first = base.add(_entry(3))
        second = base.add(_entry(4))
        assert first._table is base._table and second._table is base._table
        union = first.merge(second).merge(Log([_entry(5)]))
        assert union._table is base._table
        assert union.entry_set == {_entry(c) for c in range(1, 6)}
        assert base.entry_set == {_entry(1), _entry(2)}
        assert first.entry_set == {_entry(1), _entry(2), _entry(3)}
        assert second.entry_set == {_entry(1), _entry(2), _entry(4)}
        assert _entry(3) not in base and _entry(3) not in second
        assert second.fresh_since(base) == (_entry(4),)
        assert second.fresh_since(first) is None  # not a subset
        assert base == Log([_entry(2), _entry(1)]) and base != first
        assert [e.ts.counter for e in base.ordered()] == [1, 2]
        assert base.max_entry() == _entry(2)
        assert base.entries_of(ActionId(1, 0)) == (_entry(1), _entry(2))
        assert base.actions() == {ActionId(1, 0)} and len(base) == 2

    def test_a_later_version_on_the_same_table_is_adopted(self):
        base = Log([_entry(1)])
        grown = base.add(_entry(2))
        assert base.extended(grown) is grown
        assert grown.extended(base) is grown
        assert base.merge(grown) is grown

    def test_nothing_new_returns_self_without_forking(self):
        base = Log([_entry(1), _entry(2)])
        grown = base.add(_entry(3))
        assert base.extended([_entry(2)]) is base
        assert base.extended(Log([_entry(1)])) is base
        assert grown.extended([_entry(3), _entry(3)]) is grown

    def test_the_empty_log_is_never_a_shared_head(self):
        first = Log().add(_entry(1))
        second = EMPTY_LOG.add(_entry(2))
        third = Log().merge(Log([_entry(3)]))
        assert first.entry_set == {_entry(1)}
        assert second.entry_set == {_entry(2)}
        assert third.entry_set == {_entry(3)}
        assert len(Log()) == 0 and len(EMPTY_LOG) == 0 and Log() == EMPTY_LOG
        assert list(EMPTY_LOG) == [] and EMPTY_LOG.max_entry() is None

    def test_an_empty_log_adopts_and_sharing_is_safe(self):
        fragment = Log([_entry(1), _entry(2)])
        assert Log().merge(fragment) is fragment
        assert EMPTY_LOG.extended(fragment) is fragment
        union = Log().merge(fragment).merge(Log([_entry(3)]))
        grown = fragment.add(_entry(4))
        assert union._table is fragment._table and grown._table is fragment._table
        assert union.entry_set == {_entry(1), _entry(2), _entry(3)}
        assert grown.entry_set == {_entry(1), _entry(2), _entry(4)}
        assert fragment.entry_set == {_entry(1), _entry(2)}
        assert _entry(4) not in union and _entry(3) not in grown

    def test_out_of_order_arrivals_keep_the_orders_sorted(self):
        log = Log([_entry(5, seq=1), _entry(9, seq=2)])
        assert log.ordered() and log.entries_of(ActionId(1, 0))  # build both
        log = log.extended([_entry(7, seq=1), _entry(1, seq=2), _entry(6, seq=1)])
        assert [e.ts.counter for e in log.ordered()] == [1, 5, 6, 7, 9]
        assert [e.ts.counter for e in log.entries_of(ActionId(1, 0))] == [5, 6, 7]
        assert [e.ts.counter for e in log.entries_of(ActionId(2, 0))] == [1, 9]
        assert log.max_entry() == _entry(9, seq=2)

    def test_an_older_version_unions_as_the_value_it_is(self):
        source = Log([_entry(7), _entry(8)])
        base = Log([_entry(1)])
        grown = base.extended(source)
        assert grown.extended(source) is grown
        again = base.extended(source)
        assert again == grown and again._table is source._table
        assert len(base) == 1

    def test_a_write_on_the_writers_table_hashes_no_entry(self, monkeypatch):
        hashed = []
        original = LogEntry.__hash__

        def counting(self):
            hashed.append(self)
            return original(self)

        repo = Repository(0)
        repo.write_log("obj", Log([_entry(100)]))
        writer = Log([_entry(c) for c in range(1, 41)])
        later = [_entry(c) for c in range(41, 61)]
        monkeypatch.setattr(LogEntry, "__hash__", counting)
        # First contact: the stored entry moves to the writer's table.
        repo.write_log("obj", writer)
        assert hashed == [_entry(100)]
        assert repo.peek_log("obj")._table is writer._table
        for entry in later:
            writer = writer.add(entry)
            hashed.clear()
            repo.write_log("obj", writer)  # one integer ``|``
            assert hashed == []
        stored = repo.peek_log("obj")
        assert len(stored) == 61 and stored.extended(writer) is stored
        assert hashed == []


class TestTableReads:
    """Reads that go through the table's sorted order and action groups."""

    @settings(deadline=None, max_examples=60)
    @given(entries_strategy, st.data())
    def test_max_entry_on_a_table_never_sorted_is_the_sort_key_max(self, entries, data):
        table_entries = list(dict.fromkeys(entries))
        masks = data.draw(
            st.lists(st.integers(0, (1 << len(table_entries)) - 1), min_size=1, max_size=4)
        )
        for mask in masks:
            log = Log._of(Log(table_entries)._table, mask)  # a fresh table each
            held = [e for bit, e in enumerate(table_entries) if mask >> bit & 1]
            expected = max(held, key=lambda e: e.sort_key, default=None)
            assert log.max_entry() == expected

    def test_max_entry_builds_the_sorted_order_once_and_keeps_it(self):
        log = Log([_entry(5), _entry(9, seq=2), _entry(7)])
        assert log._table.ordered is None
        assert log.max_entry() == _entry(9, seq=2)
        ordered = log._table.ordered
        assert ordered is not None
        grown = log.add(_entry(11, seq=3))
        assert grown.max_entry() == _entry(11, seq=3)
        assert log.max_entry() == _entry(9, seq=2)
        assert grown._table.ordered is ordered

    def test_a_whole_group_is_one_and_a_partial_one_its_held_bits(self):
        mine = [_entry(3), _entry(1), _entry(2)]
        log = Log([*mine, _entry(4, seq=2)])
        whole = log.entries_of(ActionId(1, 0))
        assert whole == (_entry(1), _entry(2), _entry(3))
        # The table's group tuple itself, not a copy.
        assert log.entries_of(ActionId(1, 0)) is whole
        partial = Log._of(log._table, log._mask & ~(1 << 1))  # drops _entry(1)
        assert partial.entries_of(ActionId(1, 0)) == (_entry(2), _entry(3))
        assert log.entries_of(ActionId(7, 0)) == ()
        grown = log.add(_entry(0))
        assert grown.entries_of(ActionId(1, 0)) == (_entry(0), *whole)
        # The older log no longer holds the whole group: its bits only.
        assert log.entries_of(ActionId(1, 0)) == whole


# -- model test: many live versions of many lineages ---------------------------

_ENTRY = st.builds(
    _entry,
    counter=st.integers(1, 25),
    site=st.integers(0, 2),
    op=st.sampled_from(["Enq", "Deq"]),
    seq=st.integers(1, 4),
)
_INDEX = st.integers(0, 5)  # few targets, so versions are revisited
_STEP = st.one_of(
    st.tuples(st.just("new"), st.lists(_ENTRY, max_size=6)),
    st.tuples(st.just("extended"), _INDEX, st.lists(_ENTRY, max_size=4)),
    st.tuples(st.just("add"), _INDEX, _ENTRY),
    st.tuples(st.just("merge"), _INDEX, _INDEX),
    st.tuples(st.just("extended-by-log"), _INDEX, _INDEX),
)


def _assert_reads_agree(log: Log, model: frozenset, universe: set) -> None:
    """Every read of ``log`` answers as a from-scratch ``Log(model)`` would."""
    scratch = Log(model)
    assert len(log) == len(model)
    assert log == scratch and scratch == log and hash(log) == hash(scratch)
    assert log.entry_set == model
    assert all((entry in log) == (entry in model) for entry in universe)
    ordered = log.ordered()
    assert frozenset(ordered) == model and len(ordered) == len(model)
    assert [e.sort_key for e in ordered] == sorted(e.sort_key for e in model)
    assert list(log) == list(ordered)
    assert log.actions() == {e.action for e in model}
    for action in {e.action for e in universe}:
        group = log.entries_of(action)
        assert frozenset(group) == {e for e in model if e.action == action}
        assert [e.sort_key for e in group] == sorted(e.sort_key for e in group)
    newest = log.max_entry()
    if model:
        assert newest in model
        assert newest.sort_key == max(e.sort_key for e in model)
    else:
        assert newest is None
    assert pickle.loads(pickle.dumps(log)) == log


@settings(deadline=None, max_examples=60)
@given(st.lists(_STEP, min_size=1, max_size=16))
def test_versions_behave_as_immutable_sets_under_any_interleaving(steps):
    """Random extended/add/merge over several live versions of several
    lineages, against plain frozensets: an older version never changes
    after a later append, whichever version forks, and ``fresh_since`` is
    the exact difference or ``None``."""
    live: list[tuple[Log, frozenset]] = [(Log(), frozenset())]
    universe: set = set()
    for step in steps:
        kind = step[0]
        if kind == "new":
            log, model = Log(step[1]), frozenset(step[1])
        else:
            target, held = live[step[1] % len(live)]
            if kind == "extended":
                log, model = target.extended(iter(step[2])), held | frozenset(step[2])
            elif kind == "add":
                log, model = target.add(step[2]), held | {step[2]}
            else:
                other, other_held = live[step[2] % len(live)]
                union = target.merge if kind == "merge" else target.extended
                log, model = union(other), held | other_held
        universe |= model
        live.append((log, model))
        for version, held in live:  # including every version made earlier
            _assert_reads_agree(version, held, universe)
    for newer, newer_held in live:
        for older, older_held in live:
            delta = newer.fresh_since(older)
            if delta is not None:
                assert older_held <= newer_held
                assert len(delta) == len(frozenset(delta))
                assert frozenset(delta) == newer_held - older_held


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.lists(_ENTRY, min_size=1, max_size=6), min_size=2, max_size=5),
    st.lists(st.tuples(_INDEX, _INDEX), min_size=1, max_size=10),
)
def test_unions_across_tables_land_on_the_larger_table(groups, pairs):
    """Logs on several tables, unioned pairwise: each union is the
    frozenset union, and lands on the larger operand's table — or is the
    left operand itself when the right adds nothing."""
    live = [(Log(group), frozenset(group)) for group in groups]
    universe = set().union(*(held for _log, held in live))
    for i, j in pairs:
        (left, held), (right, other_held) = live[i % len(live)], live[j % len(live)]
        larger = max(left._table, right._table, key=lambda table: len(table.arrival))
        union = left.merge(right)
        if other_held <= held:
            assert union is left
        else:
            assert union._table is larger
        live.append((union, held | other_held))
    for log, held in live:
        _assert_reads_agree(log, held, universe)


@pytest.mark.parametrize("mechanism", ["hybrid", "blocking", "multiversion"])
def test_lineages_converge_on_one_table(mechanism):
    """After a fault-free run, every repository fragment and every cached
    view of the object is a mask over one table."""
    from repro.scenarios import runner

    cluster, generator, names = runner.build_scenario(
        "default", mechanism=mechanism, transactions=60
    )
    generator.run(60)
    for name in names:
        logs = [repo.peek_log(name) for repo in cluster.repositories]
        for frontend in cluster.frontends:
            cached = frontend.view_cache._entries.get(name)
            if cached is not None:
                logs += [cached.raw, cached.filtered]
        assert len(logs) > len(cluster.repositories) and all(logs)
        assert len({id(log._table) for log in logs}) == 1


_REPO_STEP = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 1), _ENTRY),  # the protocol's step
    st.tuples(st.just("grow"), st.integers(0, 1), _ENTRY),
    st.tuples(st.just("write"), st.integers(0, 1)),
    st.tuples(st.just("share"), st.integers(0, 1)),
    st.tuples(st.just("snapshot"), st.integers(1, 4)),
    st.tuples(st.just("crash")),
    st.tuples(st.just("checkpoint")),
)


@settings(deadline=None, max_examples=80)
@given(st.lists(_REPO_STEP, min_size=4, max_size=24))
def test_watermarks_never_skip_an_entry_across_snapshots_and_restarts(steps):
    """Two writers ship ever-growing views to one repository while it
    installs snapshots, crashes and restarts: what it stores is always
    the union of what it was sent, minus what its snapshot dropped."""
    repo = Repository(0)
    repo.journal = SiteJournal()
    writers = [Log(), Log()]
    stored: frozenset = frozenset()
    dropped: frozenset = frozenset()
    for step in steps:
        kind = step[0]
        if kind in ("grow", "send"):
            writers[step[1]] = writers[step[1]].add(step[2])
        elif kind == "share":  # one writer reads the other's view
            writers[step[1]] = writers[step[1]].merge(writers[1 - step[1]])
        if kind in ("write", "send"):
            repo.write_log("obj", writers[step[1]])
            stored |= {
                e for e in writers[step[1]].entry_set if e.action not in dropped
            }
        elif kind == "snapshot":
            dropped |= {ActionId(step[1], site) for site in range(3)}
            repo.install_snapshot(
                "obj", SimpleNamespace(dropped=dropped, subsumes=lambda other: True)
            )
            stored = frozenset(e for e in stored if e.action not in dropped)
        elif kind == "checkpoint":
            repo.journal.checkpoint(repo)
        elif kind == "crash":
            repo.lose_volatile()
            assert repo.peek_log("obj") is EMPTY_LOG
            repo.restart()
        assert repo.peek_log("obj").entry_set == stored
        assert repo.entry_count("obj") == len(stored)


# -- O(delta), counted ------------------------------------------------------------


def test_entries_touched_per_operation_do_not_grow_with_history(monkeypatch):
    """``default x multiversion``: the last quarter of 300 transactions
    touches at most twice the first quarter's entries per front-end
    operation, builds no more ``entry_set``s, and the cluster starts one
    table.

    Counts, not clocks: deterministic for the seed on any host.  Counted
    where a log can touch entries one by one — entries hashed into a
    table's bits, entries walked by mask iteration or returned by
    ``fresh_since``, a table started from a list — and every
    materialised ``entry_set``.  Copying the view per version made the
    touched entries grow with the log.
    """
    from repro.replication.frontend import FrontEnd
    from repro.scenarios import runner

    cluster, generator, _names = runner.build_scenario(
        "default", seed=0, mechanism="multiversion", transactions=300
    )
    touched_per_operation: list[int] = []
    sets_per_operation: list[int] = []
    touched = tables = sets = 0
    start_table, bits = _Table.__init__, _Table.bits
    walk, fresh_since = Log._entries, Log.fresh_since
    entry_set, execute = Log.entry_set.fget, FrontEnd.execute

    def counted_table(self, arrival):
        nonlocal touched, tables
        tables += 1
        touched += len(arrival)
        start_table(self, arrival)

    def counted_bits(self, entries):
        nonlocal touched
        entries = list(entries)
        touched += len(entries)
        return bits(self, entries)

    def counted_walk(self):
        nonlocal touched
        entries = list(walk(self))
        touched += len(entries)
        return iter(entries)

    def counted_fresh_since(self, ancestor):
        nonlocal touched
        fresh = fresh_since(self, ancestor)
        touched += len(fresh or ())
        return fresh

    def counted_entry_set(self):
        nonlocal sets
        sets += 1
        return entry_set(self)

    def counted_execute(self, txn, object_name, invocation):
        started, built = touched, sets
        try:
            return execute(self, txn, object_name, invocation)
        finally:
            touched_per_operation.append(touched - started)
            sets_per_operation.append(sets - built)

    monkeypatch.setattr(_Table, "__init__", counted_table)
    monkeypatch.setattr(_Table, "bits", counted_bits)
    monkeypatch.setattr(Log, "_entries", counted_walk)
    monkeypatch.setattr(Log, "fresh_since", counted_fresh_since)
    monkeypatch.setattr(Log, "entry_set", property(counted_entry_set))
    monkeypatch.setattr(FrontEnd, "execute", counted_execute)
    generator.run(300)

    quarter = len(touched_per_operation) // 4
    assert quarter > 100
    first = sum(touched_per_operation[:quarter]) / quarter
    last = sum(touched_per_operation[-quarter:]) / quarter
    assert max(len(repo.peek_log("queue")) for repo in cluster.repositories) > 700
    assert 0 < last <= 2 * first, (first, last)
    assert sum(sets_per_operation[-quarter:]) <= sum(sets_per_operation[:quarter])
    # One table for the whole run, over 942 operations: every fragment
    # and every view joins the first operation's.
    assert tables == 1, tables
