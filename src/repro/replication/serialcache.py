"""Incremental serialization of a growing view, for both timestamp orders.

Every scheme chooses its responses against a serial history of the
view's committed events (paper, Definition 3): in commit-timestamp
order for hybrid and locking, in begin-timestamp order for static.  The
reference implementation rebuilds that history from the view on every
operation — an O(n log n) classify-and-sort over all actions in the log
— and then replays it through the legality trie, O(n) memoized hops.
Profiling shows this pair dominating the replicated-workload hot path.

A front-end revisiting a grown view almost always sees the same
committed actions plus a few newly committed ones, so both caches here
carry legality-trie nodes forward and step only through the delta.
What they share is *finding* the delta (:class:`_ViewDelta`: which
actions of the grown view newly committed, and when the carried state
is unsound); what differs is how a newly committed action is folded in:

* :class:`SerialPrefixCache` — **commit order is append-only**: commit
  timestamps come from the transaction manager's single monotone
  Lamport clock, so one node (the committed prefix's) is carried and
  newly committed actions are stepped onto its end.
* :class:`BeginOrderCache` — **begin order is not**: a transaction that
  began early may commit late, so its events belong in the *middle* of
  the serialization.  :class:`BeginOrderCheckpoints` keeps the
  committed groups sorted by begin timestamp with the trie node reached
  after each group (a checkpoint); an insert invalidates only the
  checkpoints from its position to the tail, and a query starts from
  the checkpoint in front of the oldest position it touches.

Both *rebuild from scratch* — which is exactly the reference
computation — whenever a soundness condition fails:

* the view shrank or its compaction base changed (snapshot installed);
* a new entry arrived for an action already folded in (a lagging
  fragment filled in late);
* commit order only: a newly committed action's timestamp orders
  *before* the cached prefix's last commit (its entries reached this
  view late) — the case begin order handles by ordered insert;
* the legality oracle's memo was trimmed since the nodes were taken
  (the checkpoints are then re-stepped in the live trie; detached nodes
  would stay correct but defeat the soak's memo bound).

A view built with ``serial_cache=None`` recomputes every serialization
from scratch; the model tests (``tests/test_serialcache.py``,
``tests/test_view.py``) compare both caches against it, and the pinned
run fingerprints of ``tests/test_sim_throughput.py`` check them end to
end.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable

from repro.txn.ids import ActionId, TxnStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.clocks.timestamps import Timestamp
    from repro.histories.events import Event
    from repro.replication.view import View
    from repro.spec.legality import LegalityOracle

_BEGIN = itemgetter(0)


class BeginOrderCheckpoints:
    """Committed groups in begin-timestamp order, a trie node after each.

    A row is ``(begin_ts, tag, events)``; ``tag`` is the owner's (the
    action id for a front-end's cache, the commit timestamp for
    :class:`~repro.replication.object.SynchronizationState`).  Begin
    timestamps are unique — one Lamport clock at the transaction manager
    issues them — so the order is total.

    Checkpoints are stepped lazily: ``_nodes[i]`` is the node after rows
    ``0..i``, valid for a prefix of the rows.  :meth:`insert` truncates
    that prefix at the insert position, :meth:`node_before` extends it
    as far as asked, so a mid-list insert costs the window from its
    position to wherever the next query starts, never the whole history.
    """

    __slots__ = ("rows", "_nodes", "_trims_seen", "mid_inserts")

    def __init__(self, rows: Iterable[tuple] = ()) -> None:
        self.rows: list[tuple["Timestamp", object, tuple["Event", ...]]] = list(rows)
        self._nodes: list = []
        self._trims_seen = -1
        #: Inserts that landed in front of an existing row.
        self.mid_inserts = 0

    def __len__(self) -> int:
        return len(self.rows)

    def reset(self, rows: Iterable[tuple]) -> None:
        """Replace every row (given in begin order); drop all checkpoints."""
        self.rows = list(rows)
        self._nodes.clear()

    def position(self, begin_ts: "Timestamp") -> int:
        """How many rows began before ``begin_ts``."""
        return bisect_left(self.rows, begin_ts, key=_BEGIN)

    def insert(self, begin_ts: "Timestamp", tag, events: tuple["Event", ...]) -> int:
        position = self.position(begin_ts)
        if position < len(self.rows):
            self.mid_inserts += 1
        self.rows.insert(position, (begin_ts, tag, events))
        del self._nodes[position:]
        return position

    def node_before(self, oracle: "LegalityOracle", position: int):
        """The trie node after the first ``position`` rows' events."""
        nodes = self._nodes
        if self._trims_seen != oracle.cache_trims:
            nodes.clear()
            self._trims_seen = oracle.cache_trims
        if position == 0:
            return oracle._root_for(None)
        if len(nodes) < position:
            node = nodes[-1] if nodes else oracle._root_for(None)
            step = oracle._step
            for _begin, _tag, events in self.rows[len(nodes):position]:
                for event in events:
                    node = step(node, event)
                nodes.append(node)
        return nodes[position - 1]


class _ViewDelta:
    """Which actions of a grown view newly committed — the shared half.

    Holds the log the carried state was computed from and the
    classification of every action seen so far.  Owned by a front-end
    (one per object name, like the quorum view cache) because different
    front-ends visit replicas in different orders and therefore hold
    slightly different merged views.
    """

    __slots__ = (
        "_log",
        "_committed_set",
        "_aborted_set",
        "_undecided",
        "_base",
        "hits",
        "delta_folds",
        "rebuilds",
    )

    def __init__(self):
        self._log = None  # the Log the state was computed from
        self._committed_set: set[ActionId] = set()
        self._aborted_set: set[ActionId] = set()
        self._undecided: set[ActionId] = set()
        self._base = None
        self.hits = 0
        self.delta_folds = 0
        self.rebuilds = 0

    def contains_committed(self, action: ActionId) -> bool:
        """Is ``action`` already folded into the cached serialization?"""
        return action in self._committed_set

    def _newly_committed(self, view: "View") -> list[ActionId] | None:
        """Actions that committed since the last call, in no order.

        ``None`` means the carried state is unsound for this view and
        the caller must rebuild; an empty list is a hit.  A non-empty
        list must be folded and then passed to :meth:`_folded`.
        """
        statuses = view.statuses
        log = view.log
        if self._log is None or self._base is not view.base:
            return None
        # A mask difference when the grown log is on the cached log's
        # table; the O(n) frozenset algebra is the fallback (and stays
        # the correctness reference).
        delta = log.fresh_since(self._log)
        if delta is None:
            seen, entries = self._log.entry_set, log.entry_set
            if not (seen <= entries):
                return None
            delta = entries - seen

        if delta:
            committed_set = self._committed_set
            aborted_set = self._aborted_set
            undecided = self._undecided
            for entry in delta:
                action = entry.action
                if action in committed_set:
                    # A lagging entry for an already-folded action: the
                    # folded serialization is missing it.
                    return None
                if action not in aborted_set:
                    undecided.add(action)
        self._log = log

        newly_committed: list[ActionId] = []
        if self._undecided:
            decided_aborts = None
            for action in self._undecided:
                status = statuses.status_of(action)
                if status is TxnStatus.COMMITTED:
                    newly_committed.append(action)
                elif status is TxnStatus.ABORTED:
                    if decided_aborts is None:
                        decided_aborts = []
                    decided_aborts.append(action)
            if decided_aborts is not None:
                self._undecided.difference_update(decided_aborts)
                self._aborted_set.update(decided_aborts)
        if not newly_committed:
            self.hits += 1
        return newly_committed

    def _folded(self, newly_committed: list[ActionId]) -> None:
        self._undecided.difference_update(newly_committed)
        self._committed_set.update(newly_committed)
        self.delta_folds += 1

    def _adopt(self, view: "View", committed: tuple[ActionId, ...]) -> None:
        """Reclassify everything from ``view`` (the rebuild's bookkeeping)."""
        self.rebuilds += 1
        statuses = view.statuses
        log = view.log
        committed_set = set(committed)
        aborted: set[ActionId] = set()
        undecided: set[ActionId] = set()
        for action in log.actions():
            if action in committed_set:
                continue
            if statuses.status_of(action) is TxnStatus.ABORTED:
                aborted.add(action)
            else:
                undecided.add(action)
        self._log = log
        self._committed_set = committed_set
        self._aborted_set = aborted
        self._undecided = undecided
        self._base = view.base


class SerialPrefixCache(_ViewDelta):
    """Carried-forward commit-order replay position for one object."""

    __slots__ = ("_node", "_last_commit_ts", "_trims_seen")

    def __init__(self):
        super().__init__()
        self._node = None
        self._last_commit_ts = None
        self._trims_seen = -1

    def committed_node(self, view: "View", oracle: "LegalityOracle"):
        """The trie node after the view's committed events in commit order.

        Equivalent, by construction, to walking
        ``view.commit_order_serial(own=None)`` through the oracle from
        ``view.base_state`` — incrementally when sound, by rebuilding
        (the reference computation itself) otherwise.
        """
        if self._trims_seen != oracle.cache_trims:
            return self._rebuild(view, oracle)
        newly_committed = self._newly_committed(view)
        if newly_committed is None:
            return self._rebuild(view, oracle)
        if not newly_committed:
            return self._node

        statuses = view.statuses
        newly_committed.sort(key=statuses.commit_ts_of)
        if (
            self._last_commit_ts is not None
            and statuses.commit_ts_of(newly_committed[0]) < self._last_commit_ts
        ):
            # Commit order is globally append-only, but this view may
            # learn of an older commit late; it belongs *inside* the
            # folded prefix, not at its end.
            return self._rebuild(view, oracle)

        node = self._node
        step = oracle._step
        log = view.log
        for action in newly_committed:
            for entry in log.entries_of(action):
                node = step(node, entry.event)
        self._node = node
        self._last_commit_ts = statuses.commit_ts_of(newly_committed[-1])
        self._folded(newly_committed)
        return node

    def _rebuild(self, view: "View", oracle: "LegalityOracle"):
        """The reference computation: classify, sort, replay from the root."""
        log = view.log
        committed = view.committed_actions()
        node = oracle._root_for(view.base_state)
        step = oracle._step
        for action in committed:
            for entry in log.entries_of(action):
                node = step(node, entry.event)
        self._adopt(view, committed)
        self._node = node
        self._last_commit_ts = (
            view.statuses.commit_ts_of(committed[-1]) if committed else None
        )
        self._trims_seen = oracle.cache_trims
        return node


class BeginOrderCache(_ViewDelta):
    """Carried-forward begin-order checkpoints for one object's view."""

    __slots__ = ("_marks",)

    def __init__(self):
        super().__init__()
        self._marks = BeginOrderCheckpoints()

    def checkpoints(self, view: "View") -> BeginOrderCheckpoints:
        """The view's committed groups in begin order, brought up to date.

        Row ``i`` is what the ``i``-th committed action of
        ``sorted(view.committed_actions(), key=begin_ts_of)`` contributes
        to the reference serialization: ``(begin_ts, action, events)``.
        """
        newly_committed = self._newly_committed(view)
        if newly_committed is None:
            committed = view.committed_actions()
            self._marks.reset(begin_order_rows(view, committed))
            self._adopt(view, committed)
        elif newly_committed:
            for action in newly_committed:
                self._marks.insert(*_begin_row(view, action))
            self._folded(newly_committed)
        return self._marks


def begin_order_rows(view: "View", actions: Iterable[ActionId]) -> list[tuple]:
    """``(begin_ts, action, events)`` per action of ``view``, in begin order."""
    return sorted((_begin_row(view, action) for action in actions), key=_BEGIN)


def _begin_row(view: "View", action: ActionId) -> tuple:
    return view.statuses.begin_ts_of(action), action, view.events_of(action)


#: The cache a front-end threads through its views, by the scheme's
#: ``serialization_order``.
CACHE_FOR_ORDER = {"commit": SerialPrefixCache, "begin": BeginOrderCache}
