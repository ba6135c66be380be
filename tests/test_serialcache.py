"""The serial cache: checkpoints in either timestamp order, and the view delta.

Five layers of evidence that the incremental paths compute what the
from-scratch reference computes:

* a hypothesis property over random insertion orders — every checkpoint
  *is* the trie node the oracle reaches by replaying the flattened
  prefix;
* a differential property for static atomicity's decision: the single
  walk over the checkpoints (or over rows built afresh from the view)
  answers what the literal subset-by-subset definition answers —
  the same event, or the same fatal / non-fatal conflict blaming the
  same holder;
* a differential property for the commit-order decision: the trie node
  taken from the serial cache, or replayed without one, answers what
  replay-and-trial (``tests/oracles.py::pick_response``) answers;
* one unit test per condition under which carried state is unsound
  (each must rebuild or fall back, never answer from stale state), and
  one for the commit this view learns of late (an ordered insert, not
  a rebuild);
* a counted (not timed) guard that static atomicity's per-operation
  legality work no longer grows with the length of the history.
"""

from __future__ import annotations

from itertools import chain, combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.locking import DynamicLockingCC
from repro.cc.static_ts import StaticTimestampCC
from repro.clocks.timestamps import Timestamp
from repro.errors import ConflictError
from repro.histories.events import Event, Invocation, ok
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.coterie import ThresholdCoterie
from repro.replication.log import Log, LogEntry
from repro.replication.reconfig import reconfigure
from repro.replication.serialcache import Checkpoints, SerialPrefixCache
from repro.replication.view import View
from repro.scenarios import runner
from repro.spec.legality import LegalityOracle
from repro.txn.ids import ActionId
from repro.txn.manager import TransactionManager
from repro.types import Account, Queue, SemiQueue, standard_types
from tests.helpers import count_calls, queue_system
from tests.oracles import commit_order_serial, pick_response, reachable_responses

ENQ_A = Invocation("Enq", ("a",))
ENQ_B = Invocation("Enq", ("b",))
DEQ = Invocation("Deq")


# -- the checkpoint structure, against replay from the root -------------------


@st.composite
def grouped_histories(draw, datatype):
    """A legal serial history cut into begin-ordered groups (odd begin
    counters), plus a permutation to insert them in."""
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
    return groups, order


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
class TestCheckpoints:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_insertion_order_keeps_checkpoints_on_the_replay_path(
        self, datatype, data
    ):
        groups, order = data.draw(grouped_histories(datatype))
        # Inserted a batch at a time, as a cache folds what newly
        # committed together.
        batch = data.draw(st.integers(1, 3))
        oracle = LegalityOracle(datatype)
        marks = Checkpoints()
        inserted = []
        mid_inserts = 0
        for start in range(0, len(order), batch):
            rows = sorted(groups[index] for index in order[start : start + batch])
            seen = len(marks)
            position = marks.insert(rows)
            mid_inserts += position < seen
            inserted.extend(rows)
            assert marks.rows == sorted(inserted)
            assert marks.rows[position] == rows[0]
            _assert_checkpoints_are_replay_nodes(marks, oracle)
        assert marks.rows == groups
        assert mid_inserts == sum(
            1
            for start in range(batch, len(order), batch)
            if min(order[start : start + batch]) < max(order[:start])
        )

    def test_trimmed_oracle_gets_live_nodes(self, datatype):
        oracle = LegalityOracle(datatype)
        deposit_or_enq = Event(datatype.invocations()[0], ok())
        marks = Checkpoints()
        for begin in range(4):
            marks.insert([(Timestamp(begin, 0), begin, (deposit_or_enq,))])
        stale = marks.node_before(oracle, 4)
        oracle.trim_cache()
        # Detached nodes would still answer correctly, but keeping them
        # alive is what the soak's memo bound forbids.
        live = marks.node_before(oracle, 4)
        assert live is not stale
        assert live is oracle._node(_flatten(marks.rows))
        assert oracle.cache_nodes() == 5


# -- static atomicity's decision, against the literal definition --------------


def literal_static_choice(oracle, committed, own_begin, own_events, others, invocation):
    """Static atomicity's operation-time rule, subset by subset.

    ``committed`` holds ``(begin_ts, events)`` per committed group,
    ``others`` ``(begin_ts, holder, events)`` per other active
    transaction in ``str(holder)`` order.  For each response (sorted
    render order) legal after the committed events that began before
    ``own_begin`` and the transaction's own, every subset of ``others``
    — by size, then in ``combinations`` order — is flattened into one
    begin-ordered serial and asked of ``oracle.is_legal``.  Returns the
    first event every subset keeps legal; otherwise raises the conflict
    blaming the last member of the last candidate's first failing
    subset (fatal when only committed events are to blame).
    """

    def serial(event, chosen):
        groups = sorted(
            list(committed)
            + [(begin, events) for begin, _holder, events in chosen]
            + [(own_begin, own_events + (event,))],
            key=lambda group: group[0],
        )
        return tuple(e for _begin, events in groups for e in events)

    before = tuple(
        e
        for begin, events in sorted(committed, key=lambda group: group[0])
        if begin < own_begin
        for e in events
    )
    blocking = None
    for response in sorted(oracle.responses(before + own_events, invocation), key=str):
        event = Event(invocation, response)
        subsets = chain.from_iterable(
            combinations(others, size) for size in range(len(others) + 1)
        )
        failing = next(
            (chosen for chosen in subsets if not oracle.is_legal(serial(event, chosen))),
            None,
        )
        if failing is None:
            return event
        if failing:
            blocking = failing[-1][1]
    raise ConflictError("literal", fatal=blocking is None, holder=blocking)


@st.composite
def static_decisions(draw, datatype):
    """Committed rows (odd begin counters) in an insertion order, other
    active transactions and the executing one (even begin counters,
    holders whose ``str`` order is not their numeric order), own events
    and an invocation."""
    groups, order = draw(grouped_histories(datatype))
    alphabet = [event for _begin, _tag, events in groups for event in events]
    alphabet += [
        Event(invocation, response)
        for invocation in datatype.invocations()
        for response, _state in datatype.apply(datatype.initial_state(), invocation)
    ]
    events = st.lists(st.sampled_from(alphabet), max_size=2).map(tuple)
    begins = draw(
        st.lists(st.integers(0, len(groups) + 1), min_size=1, max_size=4, unique=True)
    )
    seqs = draw(
        st.lists(
            st.sampled_from([1, 2, 9, 10, 12, 100]),
            min_size=len(begins),
            max_size=len(begins),
            unique=True,
        )
    )
    actives = [
        (Timestamp(2 * begin, 0), ActionId(seq, 0), draw(events))
        for begin, seq in zip(begins, seqs)
    ]
    own_begin, own_id, own_events = actives.pop(draw(st.integers(0, len(actives) - 1)))
    invocation = draw(st.sampled_from(datatype.invocations()))
    return groups, order, actives, (own_begin, own_id, own_events), invocation


def _decision(choose):
    try:
        return choose()
    except ConflictError as conflict:
        return ("conflict", conflict.fatal, conflict.holder)


def _static_inputs(committed, marks, actives, own):
    """The view, synchronization state and transaction ``choose_event``
    reads: ``committed`` maps action to ``(begin_ts, events)``; with
    ``marks`` the view carries a serial cache answering with them (and
    reporting ``own`` committed if ``committed`` has it), without it
    none."""
    own_begin, own_id, own_events = own
    begins = {action: begin for action, (begin, _events) in committed.items()}
    begins.update({holder: begin for begin, holder, _events in actives})
    begins[own_id] = own_begin
    entries = {
        action: tuple(
            LogEntry(Timestamp(at, 0), event, action) for at, event in enumerate(events)
        )
        for action, (_begin, events) in committed.items()
    }
    cache = None
    if marks is not None:
        cache = SimpleNamespace(checkpoints=lambda _view: marks, committed=committed)
    view = SimpleNamespace(
        base_state=None,
        serial_cache=cache,
        statuses=SimpleNamespace(begin_ts_of=begins.__getitem__),
        committed_actions=lambda: tuple(committed),
        log=SimpleNamespace(entries_of=entries.__getitem__),
    )
    sync = SimpleNamespace(
        own_events=lambda _action: own_events,
        active_events={
            holder: list(events) for _begin, holder, events in actives + [own]
        },
    )
    return view, sync, SimpleNamespace(id=own_id, begin_ts=own_begin)


@pytest.mark.parametrize(
    "datatype",
    # SemiQueue's Deq has several legal responses: which candidate's
    # holder is blamed matters there.
    [Queue(), Account(), SemiQueue()],
    ids=["Queue", "Account", "SemiQueue"],
)
@pytest.mark.parametrize("rows", ["checkpoints", "fresh", "own-committed"])
class TestStaticDecision:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_single_walk_answers_what_the_literal_definition_answers(
        self, datatype, rows, data
    ):
        groups, order, actives, own, invocation = data.draw(static_decisions(datatype))
        own_begin, own_id, own_events = own
        oracle = LegalityOracle(datatype)
        committed = {
            ActionId(1000 + tag, 1): (begin, events) for begin, tag, events in groups
        }
        if rows == "own-committed":
            # The view already shows the executing transaction committed
            # (its own entries among them); the walk must leave it out.
            committed[own_id] = (own_begin, own_events)
        marks = Checkpoints()
        for index in order:
            begin_ts, tag, events = groups[index]
            marks.insert([(begin_ts, ActionId(1000 + tag, 1), events)])
            # Leave a partly stepped checkpoint prefix behind.
            marks.node_before(oracle, data.draw(st.integers(0, len(marks))))
        view, sync, txn = _static_inputs(
            committed, None if rows == "fresh" else marks, actives, own
        )
        others = sorted(
            [active for active in actives if active[2]], key=lambda a: str(a[1])
        )
        literal = _decision(
            lambda: literal_static_choice(
                oracle,
                [group for action, group in committed.items() if action != own_id],
                own_begin,
                own_events,
                others,
                invocation,
            )
        )
        scheme = StaticTimestampCC(datatype, LegalityOracle(datatype))
        walked = _decision(lambda: scheme.choose_event(view, txn, invocation, sync))
        assert walked == literal

        # pre_commit's safety net reads through the same walk: it fails,
        # fatally, iff the committed groups plus the transaction's own
        # events in begin order are illegal.
        sync.committed = marks
        serial = sorted(
            [(begin, events) for begin, _tag, events in groups]
            + [(own_begin, own_events)],
            key=lambda group: group[0],
        )
        legal = oracle.is_legal(tuple(e for _begin, events in serial for e in events))
        certified = _decision(lambda: scheme.pre_commit(txn, sync))
        assert certified == (None if legal else ("conflict", True, None))


def test_the_last_candidates_holder_is_blamed():
    """Each of Deq's two candidates clashes with a different holder: the
    conflict names the holder the last candidate (in sorted-render
    order) clashed with, as the literal definition does."""
    datatype = SemiQueue()
    oracle = LegalityOracle(datatype)
    enq_a, enq_b = Event(ENQ_A, ok()), Event(ENQ_B, ok())
    committed = {ActionId(1, 1): (Timestamp(1, 0), (enq_a, enq_b))}
    own = (Timestamp(2, 0), ActionId(2, 0), ())
    actives = [
        (Timestamp(3, 0), ActionId(10, 0), (Event(DEQ, ok("a")),)),
        (Timestamp(4, 0), ActionId(9, 0), (Event(DEQ, ok("b")),)),
    ]
    literal = _decision(
        lambda: literal_static_choice(
            oracle,
            list(committed.values()),
            own[0],
            own[2],
            sorted(actives, key=lambda active: str(active[1])),
            DEQ,
        )
    )
    assert literal == ("conflict", False, ActionId(9, 0))
    scheme = StaticTimestampCC(datatype, LegalityOracle(datatype))
    view, sync, txn = _static_inputs(committed, None, actives, own)
    assert _decision(lambda: scheme.choose_event(view, txn, DEQ, sync)) == literal


# -- the commit-order decision, against replay and trial -----------------------


@st.composite
def commit_order_views(draw, datatype):
    """A view over random transactions' events — committed in a random
    order, aborted or still active — plus the executing transaction
    (active, or already committed), an invocation, a compaction base
    state or none, and how the view reaches the scheme: with no serial
    cache, a cold one, or one warmed on an earlier, smaller view."""
    alphabet = sorted(
        (
            Event(invocation, response)
            for invocation, responses in reachable_responses(datatype, 2).items()
            for response in responses
        ),
        key=str,
    )
    events = st.lists(st.sampled_from(alphabet), max_size=2).map(tuple)
    tm = TransactionManager()
    own = tm.begin()
    others = [tm.begin() for _ in range(draw(st.integers(0, 4)))]
    entries, clock = [], 0
    for txn in draw(st.permutations([own, *others])):
        for event in draw(events):
            clock += 1
            entries.append(LogEntry(Timestamp(clock, 0), event, txn.id))
    fates = {txn.id: draw(st.sampled_from(["commit", "abort", "active"])) for txn in others}
    fates[own.id] = draw(st.sampled_from(["commit", "active"]))
    for txn in draw(st.permutations([own, *others])):
        if fates[txn.id] == "commit":
            tm.commit(txn)
        elif fates[txn.id] == "abort":
            tm.abort(txn)
    base = None
    if draw(st.booleans()):
        state = datatype.initial_state()
        invocations = st.lists(st.sampled_from(datatype.invocations()), max_size=3)
        for invocation in draw(invocations):
            outcomes = list(datatype.apply(state, invocation))
            state = outcomes[draw(st.integers(0, len(outcomes) - 1))][1]
        base = SimpleNamespace(state=state)
    warm = draw(st.sampled_from([None, "cold", "warm"]))
    cache = None if warm is None else SerialPrefixCache("commit")
    invocation = draw(st.sampled_from(datatype.invocations()))
    seen = draw(st.integers(0, len(entries))) if warm == "warm" else None
    return tm, own, entries, base, cache, seen, invocation


@pytest.mark.parametrize(
    "datatype", standard_types(), ids=lambda datatype: type(datatype).__name__
)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_commit_order_choice_answers_what_replay_and_trial_answer(datatype, data):
    tm, own, entries, base, cache, seen, invocation = data.draw(
        commit_order_views(datatype)
    )
    scheme = DynamicLockingCC(datatype, LegalityOracle(datatype))
    if seen is not None:
        marks = cache.checkpoints(View(Log(entries[:seen]), tm, base=base))
        marks.node_before(scheme.oracle, len(marks))
    view = View(Log(entries), tm, base=base, serial_cache=cache)
    reference = pick_response(
        LegalityOracle(datatype),
        commit_order_serial(view, own=own.id),
        invocation,
        base_state=view.base_state,
    )
    chosen = _decision(lambda: scheme._commit_order_event(view, own, invocation))
    assert chosen == (("conflict", True, None) if reference is None else reference)


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


def _counted(monkeypatch):
    """Count the serial cache's rebuilds and its checkpoint inserts."""
    return (
        count_calls(monkeypatch, SerialPrefixCache, "_rebuild"),
        count_calls(monkeypatch, Checkpoints, "insert"),
    )


@pytest.mark.parametrize("order", ["commit", "begin"])
class TestViewDeltaInvalidation:
    """Both orders find the delta one way and rebuild on the same evidence."""

    @staticmethod
    def _sync(cache, view, oracle):
        marks = cache.checkpoints(view)
        return marks.node_before(oracle, len(marks))

    def test_grown_view_folds_the_delta(self, order, committed_pair, monkeypatch):
        tm, (a, b, c), entries = committed_pair
        rebuilds, inserts = _counted(monkeypatch)
        oracle, cache = LegalityOracle(Queue()), SerialPrefixCache(order)
        small = Log([entries[b.id]])
        self._sync(cache, View(small, tm), oracle)
        grown = small.extended([entries[a.id], entries[c.id]])
        node = self._sync(cache, View(grown, tm), oracle)
        assert rebuilds.calls == 1
        assert inserts.calls == 1
        serial = (b, a) if order == "commit" else (a, b)
        assert node is oracle._node(tuple(entries[t.id].event for t in serial))
        # Nothing new: neither a rebuild nor an insert.
        self._sync(cache, View(grown, tm), oracle)
        assert (rebuilds.calls, inserts.calls) == (1, 1)

    def test_lagging_entry_for_a_folded_action_rebuilds(
        self, order, committed_pair, monkeypatch
    ):
        tm, (a, b, _c), entries = committed_pair
        rebuilds, _inserts = _counted(monkeypatch)
        oracle, cache = LegalityOracle(Queue()), SerialPrefixCache(order)
        log = Log([entries[a.id], entries[b.id]])
        self._sync(cache, View(log, tm), oracle)
        late = LogEntry(Timestamp(13, 0), Event(ENQ_B, ok()), a.id)
        node = self._sync(cache, View(log.extended([late]), tm), oracle)
        assert rebuilds.calls == 2
        a_events = (entries[a.id].event, late.event)
        b_events = (entries[b.id].event,)
        expected = b_events + a_events if order == "commit" else a_events + b_events
        assert node is oracle._node(expected)

    def test_shrunk_view_rebuilds(self, order, committed_pair, monkeypatch):
        tm, (a, b, _c), entries = committed_pair
        rebuilds, _inserts = _counted(monkeypatch)
        oracle, cache = LegalityOracle(Queue()), SerialPrefixCache(order)
        self._sync(cache, View(Log([entries[a.id], entries[b.id]]), tm), oracle)
        node = self._sync(cache, View(Log([entries[b.id]]), tm), oracle)
        assert rebuilds.calls == 2
        assert node is oracle._node((entries[b.id].event,))

    def test_compaction_base_change_rebuilds(self, order, committed_pair, monkeypatch):
        tm, (a, b, _c), entries = committed_pair
        rebuilds, _inserts = _counted(monkeypatch)
        oracle, cache = LegalityOracle(Queue()), SerialPrefixCache(order)
        log = Log([entries[a.id], entries[b.id]])
        self._sync(cache, View(log, tm), oracle)
        snapshot = SimpleNamespace(state=Queue().initial_state())
        cache_view = View(log, tm, base=snapshot, serial_cache=cache)
        if order == "begin":
            # Static never reaches its cache on a compacted view: the
            # refusal comes first and is fatal, cached or not.
            scheme = StaticTimestampCC(Queue(), oracle)
            with pytest.raises(ConflictError) as refusal:
                scheme.choose_event(cache_view, tm.begin(), DEQ, _sync_for())
            assert refusal.value.fatal
            assert rebuilds.calls == 1
        self._sync(cache, cache_view, oracle)
        assert rebuilds.calls == 2

    def test_own_transaction_already_committed_falls_back(
        self, order, committed_pair
    ):
        """Cached and from-scratch choices agree even for a committed ``own``."""
        tm, (a, b, _c), entries = committed_pair
        _cluster, obj = queue_system("hybrid" if order == "commit" else "static")
        scheme = obj.cc
        assert scheme.serialization_order == order
        log = Log([entries[a.id], entries[b.id]])
        cache = SerialPrefixCache(order)
        cached = scheme.choose_event(
            View(log, tm, serial_cache=cache), b, DEQ, _sync_for(b)
        )
        reference = scheme.choose_event(View(log, tm), b, DEQ, _sync_for(b))
        assert b.id in cache.committed
        assert cached == reference


@pytest.mark.parametrize("order", ["commit", "begin"])
def test_an_older_commit_learned_late_is_inserted_not_rebuilt(order, monkeypatch):
    """A view first shows B and C committed, then learns of A, which began
    and committed before both.  A's group is inserted at the front of the
    already-stepped checkpoints, without a rebuild, and the node after
    them is the replay of A·B·C from the compaction base."""
    datatype = Queue()
    tm = TransactionManager()
    a, b, c = tm.begin(), tm.begin(), tm.begin()
    for txn in (a, b, c):
        tm.commit(txn)
    events = {
        a.id: Event(ENQ_A, ok()),
        b.id: Event(ENQ_B, ok()),
        c.id: Event(DEQ, ok("z")),
    }
    entries = {
        txn.id: LogEntry(Timestamp(10 + i, 0), events[txn.id], txn.id)
        for i, txn in enumerate((a, b, c))
    }
    [(_response, base_state)] = datatype.apply(
        datatype.initial_state(), Invocation("Enq", ("z",))
    )
    base = SimpleNamespace(state=base_state)
    rebuilds = count_calls(monkeypatch, SerialPrefixCache, "_rebuild")
    positions = []
    insert = Checkpoints.insert

    def recorded_insert(marks, rows):
        positions.append(insert(marks, rows))
        return positions[-1]

    monkeypatch.setattr(Checkpoints, "insert", recorded_insert)
    oracle, cache = LegalityOracle(datatype), SerialPrefixCache(order)

    seen = Log([entries[b.id], entries[c.id]])
    marks = cache.checkpoints(View(seen, tm, base=base))
    later = (events[b.id], events[c.id])
    assert marks.node_before(oracle, len(marks)) is oracle._node(later, base_state)

    view = View(seen.extended([entries[a.id]]), tm, base=base)
    marks = cache.checkpoints(view)
    assert rebuilds.calls == 1  # the first use only
    assert positions == [0]
    assert [tag for _ts, tag, _events in marks.rows] == [a.id, b.id, c.id]
    node = marks.node_before(oracle, len(marks))
    assert node.frontier is not None
    assert node is oracle._node((events[a.id],) + later, base_state)
    if order == "commit":
        assert node is oracle._node(commit_order_serial(view), view.base_state)


@pytest.mark.parametrize("order", ["commit", "begin"])
def test_an_undecided_actions_entries_fold_in_timestamp_order(order, monkeypatch):
    """An active action's entries reach the view out of timestamp order,
    the later one first.  When it commits, its group is folded from the
    entries the deltas brought, in timestamp order, without a rebuild:
    the rows a cache built from scratch holds."""
    tm = TransactionManager()
    a = tm.begin()
    first = LogEntry(Timestamp(10, 0), Event(ENQ_A, ok()), a.id)
    second = LogEntry(Timestamp(11, 0), Event(ENQ_B, ok()), a.id)
    cache = SerialPrefixCache(order)
    seen = Log([second])
    assert cache.checkpoints(View(seen, tm)).rows == []
    tm.commit(a)
    rebuilds = count_calls(monkeypatch, SerialPrefixCache, "_rebuild")
    view = View(seen.extended([first]), tm)
    rows = cache.checkpoints(view).rows
    assert rebuilds.calls == 0
    assert [events for _ts, _action, events in rows] == [(first.event, second.event)]
    assert rows == SerialPrefixCache(order).checkpoints(view).rows


class TestFrontEndWiring:
    def test_cache_order_follows_the_schemes_serialization_order(self):
        for scheme, order in (
            ("hybrid", "commit"),
            ("dynamic", "commit"),
            ("static", "begin"),
        ):
            cluster, obj = queue_system(scheme)
            frontend = cluster.frontends[0]
            txn = cluster.tm.begin(0)
            frontend.execute(txn, "obj", ENQ_A)
            cache = frontend.serial_caches["obj"]
            assert type(cache) is SerialPrefixCache
            assert cache.order == obj.cc.serialization_order == order

    def test_reconfig_drops_the_cache_and_the_next_view_rebuilds(self, monkeypatch):
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
        rebuilds = count_calls(monkeypatch, SerialPrefixCache, "_rebuild")
        reader = cluster.tm.begin(0)
        assert frontend.execute(reader, "obj", DEQ) == ok("a")
        after = frontend.serial_caches["obj"]
        assert after is not before
        assert rebuilds.calls == 1


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
