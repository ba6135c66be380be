"""Unit and property tests for replicated logs (merge is a join)."""

import pickle
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.timestamps import Timestamp
from repro.histories.events import event, ok
from repro.replication.log import EMPTY_LOG, Log, LogEntry, _Store
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
    """fresh_since recovers exact deltas between versions of one store."""

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

    def test_merge_keeps_the_lineage(self):
        base = Log([_entry(1)])
        other = Log([_entry(2), _entry(3), _entry(1)])
        merged = base.merge(other)
        delta = merged.fresh_since(base)
        assert delta is not None
        assert frozenset(delta) == {_entry(2), _entry(3)}
        assert len(base) == 1 and len(other) == 3

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


class TestSharedStore:
    """One store per lineage: the head appends, everything else forks."""

    def test_an_older_version_forks_and_nothing_it_shared_changes(self):
        base = Log([_entry(1), _entry(2)])
        first = base.add(_entry(3))  # base was the head: appended in place
        second = base.add(_entry(4))  # base no longer is: forks
        assert first._store is base._store and second._store is not base._store
        assert base.entry_set == {_entry(1), _entry(2)}
        assert first.entry_set == {_entry(1), _entry(2), _entry(3)}
        assert second.entry_set == {_entry(1), _entry(2), _entry(4)}
        assert _entry(3) not in base and _entry(3) not in second
        assert second.fresh_since(base) is None  # callers fall back to sets
        assert [e.ts.counter for e in base.ordered()] == [1, 2]
        assert base.max_entry() == _entry(2)
        assert base.entries_of(ActionId(1, 0)) == (_entry(1), _entry(2))

    def test_a_later_version_of_the_same_store_is_adopted(self):
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

    def test_a_union_copy_does_not_take_over_the_other_logs_store(self):
        fragment = Log([_entry(1), _entry(2)])
        union = Log().merge(fragment).merge(Log([_entry(3)]))
        assert union._store is not fragment._store
        assert fragment.add(_entry(4))._store is fragment._store  # still the head

    def test_out_of_order_arrivals_keep_the_orders_sorted(self):
        log = Log([_entry(5, seq=1), _entry(9, seq=2)])
        assert log.ordered() and log.entries_of(ActionId(1, 0))  # build both
        log = log.extended([_entry(7, seq=1), _entry(1, seq=2), _entry(6, seq=1)])
        assert [e.ts.counter for e in log.ordered()] == [1, 5, 6, 7, 9]
        assert [e.ts.counter for e in log.entries_of(ActionId(1, 0))] == [5, 6, 7]
        assert [e.ts.counter for e in log.entries_of(ActionId(2, 0))] == [1, 9]
        assert log.max_entry() == _entry(9, seq=2)

    def test_an_older_version_does_not_trust_the_heads_watermarks(self):
        source = Log([_entry(7), _entry(8)])
        base = Log([_entry(1)])
        grown = base.extended(source)  # the store now marks ``source`` absorbed
        assert grown.extended(source) is grown
        again = base.extended(source)  # ... which says nothing about ``base``
        assert again == grown and again._store is not base._store
        assert len(base) == 1

    def test_watermark_examines_only_what_the_writer_added(self, monkeypatch):
        examined = []
        original = _Store.missing

        def counting(self, candidates, n):
            candidates = list(candidates)
            examined.append(len(candidates))
            return original(self, candidates, n)

        writer = Log([_entry(c) for c in range(1, 41)])
        stored = Log([_entry(100)]).extended(writer)  # first contact: whole diff
        monkeypatch.setattr(_Store, "missing", counting)
        for counter in range(41, 61):
            writer = writer.add(_entry(counter))
            stored = stored.extended(writer)
        assert len(stored) == 61
        # Per round: the one-entry add, then the one-entry suffix of the
        # writer's store — never the 40..60 entries shipped.
        assert examined == [1, 1] * 20
        assert stored.extended(writer) is stored and len(examined) == 40


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
    copies or re-diffs at most twice the first quarter's entries per
    front-end operation, and the cluster starts a constant number of
    stores.

    Counts, not clocks: deterministic for the seed on any host.  Counted
    where a log can touch entries wholesale — a store started from a
    list (fork, copy), candidates diffed against a store, a whole-store
    difference, a materialised ``entry_set``.  Copying the view per
    version made every one of these grow with the log.
    """
    from repro.replication.frontend import FrontEnd
    from repro.scenarios import runner

    cluster, generator, _names = runner.build_scenario(
        "default", seed=0, mechanism="multiversion", transactions=300
    )
    touched_per_operation: list[int] = []
    touched = stores = 0
    start_store, missing, lacking = _Store.__init__, _Store.missing, _Store.lacking
    entry_set, execute = Log.entry_set.fget, FrontEnd.execute

    def counted_store(self, arrival):
        nonlocal touched, stores
        stores += 1
        touched += len(arrival)
        start_store(self, arrival)

    def counted_missing(self, candidates, n):
        nonlocal touched
        candidates = list(candidates)
        touched += len(candidates)
        return missing(self, candidates, n)

    def counted_lacking(self, source, upto):
        nonlocal touched
        touched += len(source.pos)
        return lacking(self, source, upto)

    def counted_entry_set(self):
        nonlocal touched
        touched += len(self)
        return entry_set(self)

    def counted_execute(self, txn, object_name, invocation):
        started = touched
        try:
            return execute(self, txn, object_name, invocation)
        finally:
            touched_per_operation.append(touched - started)

    monkeypatch.setattr(_Store, "__init__", counted_store)
    monkeypatch.setattr(_Store, "missing", counted_missing)
    monkeypatch.setattr(_Store, "lacking", counted_lacking)
    monkeypatch.setattr(Log, "entry_set", property(counted_entry_set))
    monkeypatch.setattr(FrontEnd, "execute", counted_execute)
    generator.run(300)

    quarter = len(touched_per_operation) // 4
    assert quarter > 100
    first = sum(touched_per_operation[:quarter]) / quarter
    last = sum(touched_per_operation[-quarter:]) / quarter
    assert max(len(repo.peek_log("queue")) for repo in cluster.repositories) > 700
    assert 0 < last <= 2 * first, (first, last)
    # One store per repository and per front-end cache that touched the
    # object, plus the first operation's one-entry stores: never one per
    # operation (942 here).
    sites = len(cluster.repositories)
    assert stores <= 4 * sites, stores
