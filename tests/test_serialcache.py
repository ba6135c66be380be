"""The serial cache: checkpoints in either timestamp order, and each
object's committed serialization, served to every view that holds it.

Five layers of evidence that the object's rows compute what the
from-scratch reference computes:

* a hypothesis property over random insertion orders — every checkpoint
  *is* the trie node the oracle reaches by replaying the flattened
  prefix;
* a differential property for static atomicity's decision: the single
  walk over the object's rows (or over rows built afresh from a view
  they do not serve) answers what the literal subset-by-subset
  definition answers — the same event, or the same fatal / non-fatal
  conflict blaming the same holder;
* a hypothesis property over random views — covered or not, on another
  table lineage, on the snapshot the rows were trimmed to or another,
  the executing transaction committed, a degraded read's stray anywhere
  in its group — in both orders: the object's rows equal the rows built
  afresh from the view without the stray, checkpoint for checkpoint, or
  the query defers and the reference answers; the commit-order decision
  answers what replay-and-trial (``tests/oracles.py::pick_response``)
  answers, for the stray-free view when served and the view when not;
* one unit test per condition under which the rows must not serve a
  view, and for how commits fold (an early beginner committing late is
  an ordered insert);
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
from repro.replication.object import SynchronizationState
from repro.replication.reconfig import reconfigure
from repro.replication.serialcache import Checkpoints, SerialPrefixCache, serial_rows
from repro.replication.view import View
from repro.resilience.policy import read_only_operations
from repro.scenarios import runner
from repro.spec.legality import LegalityOracle
from repro.txn.ids import ActionId, TxnStatus
from repro.txn.manager import TransactionManager
from repro.types import Account, Queue, Register, SemiQueue, standard_types
from tests.helpers import count_calls, queue_system, small_system
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
        # Inserted one at a time, as an object folds each commit.
        oracle = LegalityOracle(datatype)
        marks = Checkpoints()
        mid_inserts = 0
        for at, index in enumerate(order):
            seen = len(marks)
            position = marks.insert(groups[index])
            mid_inserts += position < seen
            assert marks.rows == sorted(groups[i] for i in order[: at + 1])
            assert marks.rows[position] == groups[index]
            _assert_checkpoints_are_replay_nodes(marks, oracle)
        assert marks.rows == groups
        assert mid_inserts == sum(
            1 for at in range(1, len(order)) if order[at] < max(order[:at])
        )

    def test_trimmed_oracle_gets_live_nodes(self, datatype):
        oracle = LegalityOracle(datatype)
        deposit_or_enq = Event(datatype.invocations()[0], ok())
        marks = Checkpoints()
        for begin in range(4):
            marks.insert((Timestamp(begin, 0), begin, (deposit_or_enq,)))
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


def _committed_txn(action, begin_ts, commit_ts=None):
    """The slice of a committed :class:`Transaction` a fold reads."""
    return SimpleNamespace(id=action, begin_ts=begin_ts, commit_ts=commit_ts)


def _static_inputs(committed, actives, own, cache, *, own_status=TxnStatus.ACTIVE):
    """The view, synchronization state and transaction ``choose_event``
    reads.  ``committed`` maps action to ``(begin_ts, events)``; the view's
    log holds those groups' entries, and ``cache`` is the object's
    :class:`SerialPrefixCache` (``sync.committed``), folded by the caller
    from :func:`_group_entries`."""
    own_begin, own_id, own_events = own
    begins = {action: begin for action, (begin, _events) in committed.items()}
    begins.update({holder: begin for begin, holder, _events in actives})
    begins[own_id] = own_begin
    entries = _group_entries(committed)
    view = SimpleNamespace(
        base=None,
        base_state=None,
        statuses=SimpleNamespace(begin_ts_of=begins.__getitem__),
        committed_actions=lambda: tuple(committed),
        log=Log(chain.from_iterable(entries.values())),
    )
    sync = SimpleNamespace(
        committed=cache,
        own_events=lambda _action: own_events,
        active_events={
            holder: list(events) for _begin, holder, events in actives + [own]
        },
    )
    txn = SimpleNamespace(id=own_id, begin_ts=own_begin, status=own_status)
    return view, sync, txn


def _group_entries(committed):
    """One entry per event of each committed group, at counters ``0, 1, ...``
    (distinct across groups by the action's ``seq``)."""
    return {
        action: tuple(
            LogEntry(Timestamp(at, 0), event, action) for at, event in enumerate(events)
        )
        for action, (_begin, events) in committed.items()
    }


@pytest.mark.parametrize(
    "datatype",
    # SemiQueue's Deq has several legal responses: which candidate's
    # holder is blamed matters there.
    [Queue(), Account(), SemiQueue()],
    ids=["Queue", "Account", "SemiQueue"],
)
@pytest.mark.parametrize("rows", ["served", "uncovered", "own-committed"])
class TestStaticDecision:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_single_walk_answers_what_the_literal_definition_answers(
        self, datatype, rows, data
    ):
        groups, order, actives, own, invocation = data.draw(static_decisions(datatype))
        own_begin, own_id, own_events = own
        scheme = StaticTimestampCC(datatype, LegalityOracle(datatype))
        oracle = scheme.oracle
        committed = {
            ActionId(1000 + tag, 1): (begin, events) for begin, tag, events in groups
        }
        if rows == "own-committed":
            # The executing transaction is already committed (its own
            # entries among the view's): the walk must leave it out.
            committed[own_id] = (own_begin, own_events)
        # The object's rows: every group folded in the drawn order, as its
        # transactions committed, a partly stepped checkpoint prefix left
        # behind each fold.
        cache = SerialPrefixCache("begin")
        entries = _group_entries(committed)
        for index in order:
            begin_ts, tag, _events = groups[index]
            action = ActionId(1000 + tag, 1)
            cache.fold(_committed_txn(action, begin_ts), entries[action])
            cache.marks.node_before(oracle, data.draw(st.integers(0, len(cache.marks))))
        if rows == "uncovered":
            # A committed group the view has not learned of.
            unseen = ActionId(999, 1)
            cache.fold(
                _committed_txn(unseen, Timestamp(1, 1)),
                [LogEntry(Timestamp(0, 1), groups[0][2][0], unseen)],
            )
        status = TxnStatus.COMMITTED if rows == "own-committed" else TxnStatus.ACTIVE
        view, sync, txn = _static_inputs(
            committed, actives, own, cache, own_status=status
        )
        served = cache.covering(view, txn)
        assert (served is cache.marks) == (rows == "served")
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
        walked = _decision(lambda: scheme.choose_event(view, txn, invocation, sync))
        assert walked == literal

        # pre_commit's safety net reads through the same walk: it fails,
        # fatally, iff the committed groups plus the transaction's own
        # events in begin order are illegal.
        if rows != "served":
            sync.committed = SimpleNamespace(
                marks=Checkpoints(
                    sorted(
                        (begin, ActionId(1000 + tag, 1), events)
                        for begin, tag, events in groups
                    )
                )
            )
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
    cache = SerialPrefixCache("begin")
    [(action, (begin, _events))] = committed.items()
    cache.fold(_committed_txn(action, begin), _group_entries(committed)[action])
    view, sync, txn = _static_inputs(committed, actives, own, cache)
    assert cache.covering(view, txn) is cache.marks
    assert _decision(lambda: scheme.choose_event(view, txn, DEQ, sync)) == literal


# -- the object's rows, against the reference built afresh ----------------------


def _deferring(sync):
    """``sync`` as a scheme reads it, except that its rows serve no view:
    every scheme then builds the reference rows from the view."""
    return SimpleNamespace(
        committed=SimpleNamespace(covering=lambda _view, _txn: None),
        own_events=sync.own_events,
        active_events=sync.active_events,
    )


def _reference(view, order, own):
    """The view's committed groups other than ``own``'s, built afresh."""
    groups = [
        (action, view.log.entries_of(action))
        for action in view.committed_actions()
        if action != own
    ]
    return Checkpoints(serial_rows(view.statuses, order, groups), view.base_state)


@st.composite
def object_views(draw, datatype, order):
    """Random transactions run against one object, and a view of its log.

    The transactions' events are drawn at random, or legal in the order
    their groups serialize in.  Every transaction's events are recorded
    in the object's synchronization state, as a front-end records a
    durable write; each then commits (folded into the object's rows), aborts or stays
    active, in a random order, and the executing one stays active or
    commits.  Before some commit, or after all, the rows may be asked by
    a view on a table of its own (a lineage), which then learns every
    entry.  The view holds every entry, or all but a random few, on that
    table — where the mask decides whether it holds the committed ones —
    or on a table of its own.  Optionally the view also holds a
    degraded read's stray — a read-only event of a committed
    transaction, logged but never recorded, anywhere in its group and
    legal against the groups in front of it when it ran, so a group
    ordered in front of it since may conflict with it — and sits on a
    compaction base: one the rows were not trimmed to, or, in commit
    order, the snapshot they were trimmed to, the view then holding
    none of the dropped groups' entries.
    """
    alphabet = sorted(
        (
            Event(invocation, response)
            for invocation, responses in reachable_responses(datatype, 2).items()
            for response in responses
        ),
        key=str,
    )
    events = st.lists(st.sampled_from(alphabet), max_size=2).map(tuple)
    invocations = st.lists(st.sampled_from(datatype.invocations()), max_size=2)
    tm = TransactionManager()
    sync = SynchronizationState(order)
    own = tm.begin()
    others = [tm.begin() for _ in range(draw(st.integers(0, 4)))]
    fate = st.sampled_from(["commit", "commit", "abort", "active"])
    fates = {txn.id: draw(fate) for txn in others}
    fates[own.id] = draw(st.sampled_from(["active", "active", "commit"]))
    finishing = draw(st.permutations([own, *others]))
    if draw(st.booleans()):
        drawn = {txn.id: draw(events) for txn in (own, *others)}
    else:
        # Legal in the order the committed groups serialize in, the
        # executing transaction's at its place, the others' after them.
        serial = [
            txn
            for txn in (finishing if order == "commit" else others)
            if txn is not own and fates[txn.id] == "commit"
        ]
        serial.insert(len(serial) if order == "commit" else 0, own)
        serial += [txn for txn in others if fates[txn.id] != "commit"]
        drawn, state = {}, datatype.initial_state()
        for txn in serial:
            group = []
            for invocation in draw(invocations):
                outcomes = list(datatype.apply(state, invocation))
                response, state = outcomes[draw(st.integers(0, len(outcomes) - 1))]
                group.append(Event(invocation, response))
            drawn[txn.id] = tuple(group)
    entries, clock = [], 0
    for txn in draw(st.permutations([own, *others])):
        for event in drawn[txn.id]:
            clock += 1
            entries.append(LogEntry(Timestamp(clock, 0), event, txn.id))
            sync.record(txn.id, entries[-1])
    asked_at = draw(st.integers(-1, len(finishing)))  # -1: never asked
    lineage = None
    for at, txn in enumerate([*finishing, None]):
        if at == asked_at:
            lineage = Log([entry for entry in entries if draw(st.booleans())])
            sync.committed.covering(View(lineage, tm), SimpleNamespace(status=None))
        if txn is None:
            break
        if fates[txn.id] == "commit":
            tm.commit(txn)
            sync.finalize_commit(txn)
        elif fates[txn.id] == "abort":
            tm.abort(txn)
            sync.finalize_abort(txn)
    oracle = LegalityOracle(datatype)
    stray = None
    readers = [
        invocation
        for invocation in datatype.invocations()
        if invocation.op in read_only_operations(datatype)
    ]
    marks = sync.committed.marks
    writers = [at for at, row in enumerate(marks.rows) if row[1] != own.id]
    if readers and writers and draw(st.booleans()):
        at = writers[-1 - draw(st.integers(0, len(writers) - 1))]  # late first
        group = [entry for entry in entries if entry.action == marks.rows[at][1]]
        place = draw(st.integers(0, len(group)))
        node = marks.node_before(oracle, draw(st.integers(0, at)))
        for entry in group[:place]:
            node = oracle._step(node, entry.event)
        successors = oracle._successors(node, draw(st.sampled_from(readers)))
        if successors:
            # Site 1 sorts it right behind its predecessor's counter.
            counter = group[place - 1].ts.counter if place else group[0].ts.counter - 1
            stray = LogEntry(Timestamp(counter, 1), successors[0][0], group[0].action)
    shown = entries if stray is None else [*entries, stray]
    # One view in four loses entries, one in four sits on a base.
    if not draw(st.integers(0, 3)):
        shown = [entry for entry in shown if draw(st.integers(0, 3))]
    base = None
    if not draw(st.integers(0, 3)):
        state = datatype.initial_state()
        prefix = st.lists(st.sampled_from(datatype.invocations()), max_size=3)
        for invocation in draw(prefix):
            outcomes = list(datatype.apply(state, invocation))
            state = outcomes[draw(st.integers(0, len(outcomes) - 1))][1]
        base = SimpleNamespace(state=state, last_commit_ts=None)
        if order == "commit" and draw(st.booleans()):
            # Compacted: the rows start at the snapshot, past its groups.
            cut = draw(st.integers(0, len(marks)))
            if cut:
                base.last_commit_ts = marks.rows[cut - 1][0]
            folded = {action for _ts, action, _events in marks.rows[:cut]}
            sync.trim_committed(base)
            shown = [entry for entry in shown if entry.action not in folded]
    if lineage is not None and len(lineage) and draw(st.booleans()):
        # The asked lineage's table learns every entry; the view holds
        # what it asked with plus ``shown``.
        lineage.extended([*entries, stray] if stray else entries)
        log = lineage.extended(shown)
    else:
        log = Log(shown)
    if base is not None and base.last_commit_ts is not None:
        log = Log(entry for entry in log if entry.action not in folded)
    view = View(log, tm, base=base)
    invocation = draw(st.sampled_from(datatype.invocations()))
    return oracle, tm, sync, own, view, stray, invocation


@pytest.mark.parametrize("order", ["commit", "begin"])
@pytest.mark.parametrize(
    "datatype", standard_types(), ids=lambda datatype: type(datatype).__name__
)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_the_objects_rows_equal_the_reference_or_defer_to_it(datatype, order, data):
    """The object's rows serve a view exactly when it sits on the
    compaction snapshot they start at, the executing transaction is not
    committed and the view holds every recorded committed entry; then
    they equal the rows built afresh, checkpoint for checkpoint, from
    the view without a degraded read's stray, which they leave out as
    the recorded history does.  Served, the scheme answers what the
    reference answers for the view without the stray, and a commit-order
    choice answers what replay and trial answer for it; unserved, the
    reference answers for the view, stray and all.  The two can differ:
    a group ordered in front of the stray's after the read can make it
    illegal, and the reference then refuses what the rows allow
    (``test_a_stray_behind_a_conflicting_commit_is_refused_only_by_the_reference``)."""
    oracle, tm, sync, own, view, stray, invocation = data.draw(
        object_views(datatype, order)
    )
    cache = sync.committed
    marks = cache.covering(view, own)
    recorded = [
        entry
        for _ts, action, _events in cache.marks.rows
        for entry in view.log.entries_of(action)
        if entry is not stray
    ]
    folded = sum(len(events) for _ts, _action, events in cache.marks.rows)
    covered = (
        view.base is cache._base
        and own.status is not TxnStatus.COMMITTED
        and len(recorded) == folded
    )
    assert (marks is cache.marks) == covered
    plain = view
    if stray is not None and stray in view.log:
        plain = View(Log(e for e in view.log.ordered() if e != stray), tm, base=view.base)
    if marks is not None:
        reference = _reference(plain, order, own.id)
        assert marks.rows == reference.rows
        for position in range(len(marks) + 1):
            node = marks.node_before(oracle, position)
            assert node is reference.node_before(oracle, position)

    if order == "commit":
        scheme = DynamicLockingCC(datatype, oracle)

        def choose(view, sync):
            return scheme._commit_order_event(view, own, invocation, sync)

    else:
        scheme = StaticTimestampCC(datatype, oracle)

        def choose(view, sync):
            return scheme.choose_event(view, own, invocation, sync)

    chosen = _decision(lambda: choose(view, sync))
    if marks is not None:
        assert chosen == _decision(lambda: choose(plain, _deferring(sync)))
    if order == "commit":
        replayed = pick_response(
            LegalityOracle(datatype),
            commit_order_serial(view if marks is None else plain, own=own.id),
            invocation,
            base_state=view.base_state,
        )
        assert chosen == (("conflict", True, None) if replayed is None else replayed)


# -- when the object's rows must not serve a view ------------------------------


def _committed_pair(order):
    """A TM with A and B committed (B first) and C active, one Enq each
    recorded on one object whose rows are kept in ``order``."""
    tm = TransactionManager()
    sync = SynchronizationState(order)
    a, b, c = tm.begin(), tm.begin(), tm.begin()
    entries = {
        a.id: LogEntry(Timestamp(10, 0), Event(ENQ_A, ok()), a.id),
        b.id: LogEntry(Timestamp(11, 0), Event(ENQ_B, ok()), b.id),
        c.id: LogEntry(Timestamp(12, 0), Event(ENQ_A, ok()), c.id),
    }
    for txn in (a, b, c):
        sync.record(txn.id, entries[txn.id])
    for txn in (b, a):
        tm.commit(txn)
        sync.finalize_commit(txn)
    return tm, sync, (a, b, c), entries


def _sync_for(txn=None, events=()):
    """The slice of SynchronizationState ``choose_event`` reads, its rows
    never serving a view."""
    return SimpleNamespace(
        committed=SimpleNamespace(covering=lambda _view, _txn: None),
        own_events=lambda _txn: tuple(events),
        active_events={} if txn is None else {txn.id: list(events)},
    )


@pytest.mark.parametrize("order", ["commit", "begin"])
class TestCovering:
    """Each condition under which the object's rows serve a view, or not."""

    def test_a_view_holding_every_committed_entry_is_served(self, order):
        tm, sync, (a, b, c), entries = _committed_pair(order)
        view = View(Log(entries.values()), tm)
        marks = sync.committed.covering(view, c)
        assert marks is sync.committed.marks
        assert marks.rows == _reference(view, order, c.id).rows
        serial = (b, a) if order == "commit" else (a, b)
        oracle = LegalityOracle(Queue())
        expected = tuple(entries[t.id].event for t in serial)
        assert marks.node_before(oracle, len(marks)) is oracle._node(expected)
        # The next commit is one fold, and the grown view is served it.
        tm.commit(c)
        sync.finalize_commit(c)
        reader = tm.begin()
        assert sync.committed.covering(view, reader) is marks
        assert marks.rows == _reference(view, order, reader.id).rows
        assert [action for _ts, action, _events in marks.rows][-1] == c.id

    def test_a_view_missing_a_committed_entry_defers(self, order):
        tm, sync, (a, b, c), entries = _committed_pair(order)
        view = View(Log([entries[a.id], entries[c.id]]), tm)
        assert sync.committed.covering(view, c) is None
        _cluster, obj = queue_system("hybrid" if order == "commit" else "static")
        # The reference answers from what the view holds: A's item first.
        assert obj.cc.choose_event(view, c, DEQ, sync) == Event(DEQ, ok("a"))

    def test_a_view_on_another_lineage_is_rebased_once(self, order, monkeypatch):
        tm, sync, (_a, _b, c), entries = _committed_pair(order)
        rebases = count_calls(monkeypatch, SerialPrefixCache, "_rebase")
        first = Log(entries.values())
        for log in (first, first.add(_enq(20))):
            assert sync.committed.covering(View(log, tm), c) is sync.committed.marks
        assert rebases.calls == 1
        other = Log(reversed(list(entries.values())))
        assert other._table is not first._table
        assert sync.committed.covering(View(other, tm), c) is sync.committed.marks
        assert rebases.calls == 2
        # A table lacking a committed entry is not switched to.
        lacking = Log([entries[c.id]])
        assert sync.committed.covering(View(lacking, tm), c) is None
        assert sync.committed.covering(View(other, tm), c) is sync.committed.marks
        assert rebases.calls == 3

    def test_a_view_on_the_rows_table_missing_a_committed_entry_defers(self, order):
        tm, sync, (a, b, c), entries = _committed_pair(order)
        small = Log([entries[a.id], entries[c.id]])
        full = small.extended([entries[b.id]])
        assert full._table is small._table
        assert sync.committed.covering(View(full, tm), c) is sync.committed.marks
        assert sync.committed.covering(View(small, tm), c) is None

    def test_a_commit_off_the_rows_table_is_re_expressed(self, order):
        tm, sync, (a, b, c), entries = _committed_pair(order)
        seen = Log([entries[a.id], entries[b.id]])
        reader = tm.begin()
        assert sync.committed.covering(View(seen, tm), reader) is sync.committed.marks
        # C commits while the rows' table lacks its entry; the table
        # learns it later, from a log the view does not hold.
        tm.commit(c)
        sync.finalize_commit(c)
        grown = seen.extended([entries[c.id]])
        assert grown._table is seen._table
        assert sync.committed.covering(View(seen, tm), reader) is None
        marks = sync.committed.covering(View(grown, tm), reader)
        assert marks is sync.committed.marks
        assert marks.rows == _reference(View(grown, tm), order, reader.id).rows

    def test_a_compaction_base_the_rows_do_not_start_at_defers(self, order):
        tm, sync, (_a, _b, c), entries = _committed_pair(order)
        snapshot = SimpleNamespace(state=Queue().initial_state(), last_commit_ts=None)
        view = View(Log(entries.values()), tm, base=snapshot)
        assert sync.committed.covering(view, c) is None
        if order == "begin":
            # Static refuses a compacted view before it reads any rows.
            with pytest.raises(ConflictError) as refusal:
                StaticTimestampCC(Queue()).choose_event(view, c, DEQ, sync)
            assert refusal.value.fatal

    def test_own_transaction_already_committed_defers(self, order):
        """Served and from-scratch choices agree even for a committed ``own``."""
        tm, sync, (a, b, _c), entries = _committed_pair(order)
        _cluster, obj = queue_system("hybrid" if order == "commit" else "static")
        scheme = obj.cc
        assert scheme.serialization_order == order
        view = View(Log([entries[a.id], entries[b.id]]), tm)
        assert sync.committed.covering(view, b) is None
        # Served, B's own group would be among the rows: the reference
        # leaves it out.
        chosen = _decision(lambda: scheme.choose_event(view, b, DEQ, _sync_for(b)))
        assert chosen == Event(DEQ, ok("a"))
        assert _decision(lambda: scheme.choose_event(view, b, DEQ, sync)) == _decision(
            lambda: scheme.choose_event(view, b, DEQ, _deferring(sync))
        )


def _enq(counter):
    """An Enq entry of an action no transaction manager knows."""
    return LogEntry(Timestamp(counter, 0), Event(ENQ_B, ok()), ActionId(counter, 0))


def test_trimmed_rows_stay_bounded_and_serve_the_views_on_their_snapshot():
    """Soak's trim drops the groups a compaction folded, with their
    entries; the rows then start at the snapshot's state and serve the
    views on that snapshot object, and no other."""
    tm, sync, (a, b, c), entries = _committed_pair("commit")
    view = View(Log(entries.values()), tm)
    assert sync.committed.covering(view, c) is sync.committed.marks
    [(_response, after_b)] = Queue().apply(Queue().initial_state(), ENQ_B)
    snapshot = SimpleNamespace(state=after_b, last_commit_ts=tm.commit_ts_of(b.id))
    assert sync.trim_committed(snapshot) == 1
    assert [action for _ts, action, _events in sync.committed.marks.rows] == [a.id]
    assert sync.committed._entries == [entries[a.id]]
    assert sync.committed._table is None
    assert sync.committed.covering(view, c) is None
    twin = SimpleNamespace(state=after_b, last_commit_ts=snapshot.last_commit_ts)
    compacted = Log([entries[a.id], entries[c.id]])
    assert sync.committed.covering(View(compacted, tm, base=twin), c) is None
    view = View(compacted, tm, base=snapshot)
    marks = sync.committed.covering(view, c)
    assert marks is sync.committed.marks
    oracle = LegalityOracle(Queue())
    reference = _reference(view, "commit", c.id)
    assert marks.rows == reference.rows
    assert marks.node_before(oracle, 1) is reference.node_before(oracle, 1)
    hybrid = queue_system("hybrid")[1].cc
    assert hybrid.choose_event(view, c, DEQ, sync) == Event(DEQ, ok("b"))
    assert sync.trim_committed(snapshot) == 0
    assert sync.committed.covering(view, c) is marks


def test_a_degraded_reads_stray_is_left_out_and_changes_no_choice():
    """A committed writer's Read whose final quorum failed is in the view
    but in no recorded group: the rows leave it out, the reference keeps
    it, and both choose the same response."""
    datatype = Register()
    tm = TransactionManager()
    _cluster, obj = small_system(datatype, "hybrid")
    scheme = obj.cc
    sync = SynchronizationState("commit")
    writer, reader = tm.begin(), tm.begin()
    write = Event(Invocation("Write", ("x",)), ok())
    recorded = LogEntry(Timestamp(1, 0), write, writer.id)
    sync.record(writer.id, recorded)
    stray = LogEntry(Timestamp(2, 0), Event(Invocation("Read"), ok("x")), writer.id)
    tm.commit(writer)
    sync.finalize_commit(writer)
    view = View(Log([recorded, stray]), tm)
    marks = sync.committed.covering(view, reader)
    assert marks is sync.committed.marks
    assert marks.rows == [(writer.commit_ts, writer.id, (write,))]
    assert _reference(view, "commit", reader.id).rows == [
        (writer.commit_ts, writer.id, (write, stray.event))
    ]
    read = Invocation("Read")
    served = scheme.choose_event(view, reader, read, sync)
    assert served == scheme.choose_event(view, reader, read, _deferring(sync))
    assert served == Event(read, ok("x"))


@pytest.mark.parametrize("order", ["commit", "begin"])
def test_a_stray_behind_a_conflicting_commit_is_refused_only_by_the_reference(order):
    """T's degraded Read saw the initial value and held no lock for it;
    U, begun first, then wrote and committed in front of T.  The rows
    leave the stray out, as the recorded history does, and the next
    Read is served U's and T's writes; the reference keeps the stray in
    T's group, after U's Write, where it is illegal, and refuses."""
    datatype = Register()
    tm = TransactionManager()
    sync = SynchronizationState(order)
    u, t = tm.begin(), tm.begin()
    read = Invocation("Read")
    stray = LogEntry(Timestamp(1, 0), Event(read, ok("0")), t.id)
    writes = {
        u.id: LogEntry(Timestamp(2, 0), Event(Invocation("Write", ("x",)), ok()), u.id),
        t.id: LogEntry(Timestamp(3, 0), Event(Invocation("Write", ("y",)), ok()), t.id),
    }
    for txn in (u, t):
        sync.record(txn.id, writes[txn.id])
        tm.commit(txn)
        sync.finalize_commit(txn)
    reader = tm.begin()
    view = View(Log([stray, *writes.values()]), tm)
    marks = sync.committed.covering(view, reader)
    assert marks is sync.committed.marks
    assert [events for _ts, _action, events in marks.rows] == [
        (writes[u.id].event,),
        (writes[t.id].event,),
    ]
    assert _reference(view, order, reader.id).rows[-1][2] == (
        stray.event,
        writes[t.id].event,
    )
    scheme = small_system(datatype, "hybrid" if order == "commit" else "static")[1].cc
    assert scheme.choose_event(view, reader, read, sync) == Event(read, ok("y"))
    refused = _decision(lambda: scheme.choose_event(view, reader, read, _deferring(sync)))
    assert refused[:2] == ("conflict", True)


# -- how commits fold ------------------------------------------------------------


@pytest.mark.parametrize("order", ["commit", "begin"])
def test_an_early_beginner_committing_late_is_an_ordered_insert(order, monkeypatch):
    """A began first but commits after B and C.  In begin order its group
    is inserted in front of the already-stepped checkpoints; in commit
    order it is appended.  Either way the node after the rows is the
    replay of the serialization."""
    datatype = Queue()
    tm = TransactionManager()
    sync = SynchronizationState(order)
    a, b, c = tm.begin(), tm.begin(), tm.begin()
    events = {
        a.id: Event(ENQ_A, ok()),
        b.id: Event(ENQ_B, ok()),
        c.id: Event(DEQ, ok("b")),
    }
    for i, txn in enumerate((a, b, c)):
        sync.record(txn.id, LogEntry(Timestamp(10 + i, 0), events[txn.id], txn.id))
    positions = []
    fold = SerialPrefixCache.fold

    def recorded_fold(cache, txn, entries):
        positions.append(fold(cache, txn, entries))
        return positions[-1]

    monkeypatch.setattr(SerialPrefixCache, "fold", recorded_fold)
    oracle = LegalityOracle(datatype)
    for txn in (b, c):
        tm.commit(txn)
        sync.finalize_commit(txn)
    marks = sync.committed.marks
    assert marks.node_before(oracle, len(marks)) is oracle._node(
        (events[b.id], events[c.id])
    )
    tm.commit(a)
    sync.finalize_commit(a)
    serial = (a, b, c) if order == "begin" else (b, c, a)
    assert positions == [0, 1, 0 if order == "begin" else 2]
    assert [action for _ts, action, _events in marks.rows] == [t.id for t in serial]
    node = marks.node_before(oracle, len(marks))
    assert node is oracle._node(tuple(events[t.id] for t in serial))


def test_a_groups_entries_fold_in_timestamp_order():
    """A transaction's entries recorded out of timestamp order (the later
    one first) fold in timestamp order: the row the reference builds."""
    tm = TransactionManager()
    sync = SynchronizationState("commit")
    a = tm.begin()
    first = LogEntry(Timestamp(10, 0), Event(ENQ_A, ok()), a.id)
    second = LogEntry(Timestamp(11, 0), Event(ENQ_B, ok()), a.id)
    sync.record(a.id, second)
    sync.record(a.id, first)
    tm.commit(a)
    sync.finalize_commit(a)
    view = View(Log([second, first]), tm)
    rows = sync.committed.covering(view, tm.begin()).rows
    assert [events for _ts, _action, events in rows] == [(first.event, second.event)]
    assert rows == _reference(view, "commit", None).rows


class TestFrontEndWiring:
    def test_each_objects_rows_follow_its_schemes_serialization_order(self):
        for scheme, order in (
            ("hybrid", "commit"),
            ("dynamic", "commit"),
            ("static", "begin"),
        ):
            cluster, obj = queue_system(scheme)
            frontend = cluster.frontends[0]
            txn = cluster.tm.begin(0)
            frontend.execute(txn, "obj", ENQ_A)
            cluster.tm.commit(txn)
            cache = obj.sync.committed
            assert type(cache) is SerialPrefixCache
            assert cache.order == obj.cc.serialization_order == order
            assert [action for _ts, action, _events in cache.marks.rows] == [txn.id]
            assert not hasattr(frontend, "serial_caches")

    def test_after_reconfig_the_next_view_is_served_and_equals_the_reference(
        self, monkeypatch
    ):
        cluster, obj = queue_system("static")
        frontend = cluster.frontends[0]
        for invocation in (ENQ_A, ENQ_B):
            txn = cluster.tm.begin(0)
            frontend.execute(txn, "obj", invocation)
            cluster.tm.commit(txn)
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
        asked = []
        covering = SerialPrefixCache.covering

        def recorded(cache, view, txn):
            asked.append((view, covering(cache, view, txn)))
            return asked[-1][1]

        monkeypatch.setattr(SerialPrefixCache, "covering", recorded)
        reader = cluster.tm.begin(0)
        assert frontend.execute(reader, "obj", DEQ) == ok("a")
        [(view, marks)] = asked
        assert marks is obj.sync.committed.marks
        assert marks.rows == _reference(view, "begin", reader.id).rows


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
