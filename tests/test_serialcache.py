"""The serial caches: begin-order checkpoints and the shared view delta.

Three layers of evidence that the incremental paths compute what the
from-scratch reference computes:

* a hypothesis property over random insertion orders — every checkpoint
  *is* the trie node the oracle reaches by replaying the flattened
  prefix, and ``legal_with`` agrees with ``is_legal`` on the merged
  serial;
* one unit test per condition under which carried state is unsound
  (each must rebuild or fall back, never answer from stale state);
* a counted (not timed) guard that static atomicity's per-operation
  legality work no longer grows with the length of the history.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.static_ts import StaticTimestampCC
from repro.clocks.timestamps import Timestamp
from repro.errors import ConflictError
from repro.histories.events import Event, Invocation, ok
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.coterie import ThresholdCoterie
from repro.replication.log import Log, LogEntry
from repro.replication.reconfig import reconfigure
from repro.replication.serialcache import (
    BeginOrderCache,
    BeginOrderCheckpoints,
    SerialPrefixCache,
)
from repro.replication.view import View
from repro.scenarios import runner
from repro.spec.legality import LegalityOracle
from repro.txn.manager import TransactionManager
from repro.types import Account, Queue
from tests.helpers import queue_system

ENQ_A = Invocation("Enq", ("a",))
ENQ_B = Invocation("Enq", ("b",))
DEQ = Invocation("Deq")


# -- the checkpoint structure, against replay from the root -------------------


@st.composite
def grouped_histories(draw, datatype):
    """A legal serial history cut into begin-ordered groups, plus a
    permutation to insert them in and blocks to merge in afterwards."""
    invocations = datatype.invocations()
    state = datatype.initial_state()
    groups = []
    for begin in range(draw(st.integers(1, 7))):
        events = []
        for _ in range(draw(st.integers(1, 3))):
            invocation = draw(st.sampled_from(invocations))
            outcomes = list(datatype.apply(state, invocation))
            response, state = outcomes[draw(st.integers(0, len(outcomes) - 1))]
            events.append(Event(invocation, response))
        groups.append((Timestamp(2 * begin + 1, 0), begin, tuple(events)))
    order = draw(st.permutations(range(len(groups))))
    alphabet = [event for _begin, _tag, events in groups for event in events]
    blocks = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(groups)),
                st.lists(st.sampled_from(alphabet), max_size=2).map(tuple),
            ),
            min_size=1,
            max_size=3,
        )
    )
    return groups, order, sorted(blocks, key=lambda block: block[0])


def _flatten(rows):
    return tuple(event for _begin, _tag, events in rows for event in events)


def _assert_checkpoints_are_replay_nodes(marks, oracle):
    for position in range(len(marks) + 1):
        prefix = _flatten(marks.rows[:position])
        node = marks.node_before(oracle, position)
        assert (node.frontier is not None) == oracle.is_legal(prefix)
        if node.frontier is not None:
            assert node is oracle._node(prefix)


@pytest.mark.parametrize("datatype", [Queue(), Account()], ids=["Queue", "Account"])
class TestBeginOrderCheckpoints:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_insertion_order_keeps_checkpoints_on_the_replay_path(
        self, datatype, data
    ):
        groups, order, blocks = data.draw(grouped_histories(datatype))
        oracle = LegalityOracle(datatype)
        marks = BeginOrderCheckpoints()
        inserted = []
        for index in order:
            begin_ts, tag, events = groups[index]
            position = marks.insert(begin_ts, tag, events)
            inserted.append(groups[index])
            assert marks.rows == sorted(inserted)
            assert marks.rows[position] == groups[index]
            _assert_checkpoints_are_replay_nodes(marks, oracle)
        assert marks.rows == groups
        assert marks.mid_inserts == sum(
            1 for seen, index in enumerate(order) if index < max(order[: seen + 1])
        )

        merged = []
        for position in range(len(groups) + 1):
            merged += [events for at, events in blocks if at == position]
            if position < len(groups):
                merged.append(groups[position][2])
        serial = tuple(event for events in merged for event in events)
        assert marks.legal_with(oracle, blocks) == oracle.is_legal(serial)

    def test_trimmed_oracle_gets_live_nodes(self, datatype):
        oracle = LegalityOracle(datatype)
        deposit_or_enq = Event(datatype.invocations()[0], ok())
        marks = BeginOrderCheckpoints()
        for begin in range(4):
            marks.insert(Timestamp(begin, 0), begin, (deposit_or_enq,))
        stale = marks.node_before(oracle, 4)
        oracle.trim_cache()
        # Detached nodes would still answer correctly, but keeping them
        # alive is what the soak's memo bound forbids.
        live = marks.node_before(oracle, 4)
        assert live is not stale
        assert live is oracle._node(_flatten(marks.rows))
        assert oracle.cache_nodes() == 5


# -- when carried state is unsound ---------------------------------------------


@pytest.fixture()
def committed_pair():
    """A TM with A and B committed (B first) and C active, one Enq each."""
    tm = TransactionManager()
    a, b, c = tm.begin(), tm.begin(), tm.begin()
    entries = {
        a.id: LogEntry(Timestamp(10, 0), Event(ENQ_A, ok()), a.id),
        b.id: LogEntry(Timestamp(11, 0), Event(ENQ_B, ok()), b.id),
        c.id: LogEntry(Timestamp(12, 0), Event(ENQ_A, ok()), c.id),
    }
    tm.commit(b)
    tm.commit(a)
    return tm, (a, b, c), entries


def _sync_for(txn=None, events=()):
    """The slice of SynchronizationState ``choose_event`` reads."""
    return SimpleNamespace(
        own_events=lambda _txn: tuple(events),
        active_events={} if txn is None else {txn.id: list(events)},
    )


@pytest.mark.parametrize("cache_type", [SerialPrefixCache, BeginOrderCache])
class TestViewDeltaInvalidation:
    """The shared half: both caches must rebuild on the same evidence."""

    @staticmethod
    def _sync(cache, view, oracle):
        if isinstance(cache, SerialPrefixCache):
            return cache.committed_node(view, oracle)
        marks = cache.checkpoints(view)
        return marks.node_before(oracle, len(marks))

    def test_grown_view_folds_the_delta(self, cache_type, committed_pair):
        tm, (a, b, c), entries = committed_pair
        oracle, cache = LegalityOracle(Queue()), cache_type()
        small = Log([entries[b.id]])
        self._sync(cache, View(small, tm), oracle)
        grown = small.extended([entries[a.id], entries[c.id]])
        node = self._sync(cache, View(grown, tm), oracle)
        assert cache.stats()["rebuilds"] == 1
        assert cache.stats()["delta_folds"] == 1
        order = (b, a) if cache_type is SerialPrefixCache else (a, b)
        assert node is oracle._node(tuple(entries[t.id].event for t in order))
        self._sync(cache, View(grown, tm), oracle)
        assert cache.stats()["hits"] == 1

    def test_lagging_entry_for_a_folded_action_rebuilds(
        self, cache_type, committed_pair
    ):
        tm, (a, b, _c), entries = committed_pair
        oracle, cache = LegalityOracle(Queue()), cache_type()
        log = Log([entries[a.id], entries[b.id]])
        self._sync(cache, View(log, tm), oracle)
        late = LogEntry(Timestamp(13, 0), Event(ENQ_B, ok()), a.id)
        node = self._sync(cache, View(log.extended([late]), tm), oracle)
        assert cache.stats()["rebuilds"] == 2
        a_events = (entries[a.id].event, late.event)
        b_events = (entries[b.id].event,)
        expected = (
            b_events + a_events
            if cache_type is SerialPrefixCache
            else a_events + b_events
        )
        assert node is oracle._node(expected)

    def test_shrunk_view_rebuilds(self, cache_type, committed_pair):
        tm, (a, b, _c), entries = committed_pair
        oracle, cache = LegalityOracle(Queue()), cache_type()
        self._sync(cache, View(Log([entries[a.id], entries[b.id]]), tm), oracle)
        node = self._sync(cache, View(Log([entries[b.id]]), tm), oracle)
        assert cache.stats()["rebuilds"] == 2
        assert node is oracle._node((entries[b.id].event,))

    def test_compaction_base_change_rebuilds(self, cache_type, committed_pair):
        tm, (a, b, _c), entries = committed_pair
        oracle, cache = LegalityOracle(Queue()), cache_type()
        log = Log([entries[a.id], entries[b.id]])
        self._sync(cache, View(log, tm), oracle)
        snapshot = SimpleNamespace(state=Queue().initial_state())
        cache_view = View(log, tm, base=snapshot, serial_cache=cache)
        if cache_type is BeginOrderCache:
            # Static never reaches its cache on a compacted view: the
            # refusal comes first and is fatal, cached or not.
            scheme = StaticTimestampCC(Queue(), oracle)
            with pytest.raises(ConflictError) as refusal:
                scheme.choose_event(cache_view, tm.begin(), DEQ, _sync_for())
            assert refusal.value.fatal
            assert cache.stats()["rebuilds"] == 1
        self._sync(cache, cache_view, oracle)
        assert cache.stats()["rebuilds"] == 2

    def test_own_transaction_already_committed_falls_back(
        self, cache_type, committed_pair
    ):
        """Cached and from-scratch choices agree even for a committed ``own``."""
        tm, (a, b, _c), entries = committed_pair
        _cluster, obj = queue_system(
            "hybrid" if cache_type is SerialPrefixCache else "static"
        )
        scheme = obj.cc
        log = Log([entries[a.id], entries[b.id]])
        cache = cache_type()
        cached = scheme.choose_event(
            View(log, tm, serial_cache=cache), b, DEQ, _sync_for(b)
        )
        reference = scheme.choose_event(View(log, tm), b, DEQ, _sync_for(b))
        assert cache.contains_committed(b.id)
        assert cached == reference


class TestFrontEndWiring:
    def test_cache_kind_follows_the_schemes_serialization_order(self):
        for scheme, kind in (
            ("hybrid", SerialPrefixCache),
            ("dynamic", SerialPrefixCache),
            ("static", BeginOrderCache),
        ):
            cluster, _obj = queue_system(scheme)
            frontend = cluster.frontends[0]
            txn = cluster.tm.begin(0)
            frontend.execute(txn, "obj", ENQ_A)
            assert type(frontend.serial_caches["obj"]) is kind

    def test_reconfig_drops_the_cache_and_the_next_view_rebuilds(self):
        cluster, obj = queue_system("static")
        frontend = cluster.frontends[0]
        for invocation in (ENQ_A, ENQ_B):
            txn = cluster.tm.begin(0)
            frontend.execute(txn, "obj", invocation)
            cluster.tm.commit(txn)
        before = frontend.serial_caches["obj"]
        read_one = OperationQuorums(
            initial=ThresholdCoterie(3, 1), final=ThresholdCoterie(3, 3)
        )
        assignment = QuorumAssignment(3, {"Enq": read_one, "Deq": read_one})
        assert reconfigure(
            cluster.network,
            cluster.repositories,
            obj,
            assignment,
            frontends=cluster.frontends,
        )
        assert "obj" not in frontend.serial_caches
        reader = cluster.tm.begin(0)
        assert frontend.execute(reader, "obj", DEQ) == ok("a")
        after = frontend.serial_caches["obj"]
        assert after is not before
        assert after.stats()["rebuilds"] == 1


# -- O(delta), counted ------------------------------------------------------------


def test_static_legality_steps_per_operation_do_not_grow_with_history(monkeypatch):
    """``default x multiversion``: the last quarter of 300 transactions
    costs at most twice the first quarter's trie hops per operation.

    Counts, not clocks: deterministic for the seed on any host.  From
    scratch the count grows with the log (every legality test replays
    the whole committed history), so this fails without the caches.
    """
    from repro.replication.frontend import FrontEnd

    cluster, generator, _names = runner.build_scenario(
        "default", seed=0, mechanism="multiversion", transactions=300
    )
    steps_per_operation: list[int] = []
    steps = 0
    original_step = LegalityOracle._step
    original_execute = FrontEnd.execute

    def counting_step(self, node, event):
        nonlocal steps
        steps += 1
        return original_step(self, node, event)

    def counted_execute(self, txn, object_name, invocation):
        started = steps
        try:
            return original_execute(self, txn, object_name, invocation)
        finally:
            steps_per_operation.append(steps - started)

    monkeypatch.setattr(LegalityOracle, "_step", counting_step)
    monkeypatch.setattr(FrontEnd, "execute", counted_execute)
    generator.run(300)

    quarter = len(steps_per_operation) // 4
    assert quarter > 100
    first = sum(steps_per_operation[:quarter]) / quarter
    last = sum(steps_per_operation[-quarter:]) / quarter
    assert last <= 2 * first, (first, last)
