"""Incremental serialization of a growing view, in either timestamp order.

Every scheme chooses its responses against a serial history of the
view's committed events (paper, Definition 3): in commit-timestamp
order for hybrid and locking, in begin-timestamp order for static.  The
reference implementation rebuilds that history from the view on every
operation — an O(n log n) classify-and-sort over all actions in the log
— and then replays it through the legality trie, O(n) memoized hops.
Profiling shows this pair dominating the replicated-workload hot path.

The two orders differ only in which timestamp places a committed action,
so one structure serves both.  :class:`Checkpoints` keeps the committed
groups sorted by that timestamp, with the trie node reached after each
group (a checkpoint), starting from the view's compaction snapshot
state.  A group arriving anywhere — in begin order a transaction that
began early and committed late, in commit order an older commit this
view learns of late — is an ordered insert: it invalidates only the
checkpoints from its position to the tail, and a query starts from the
checkpoint in front of the oldest position it touches.

A front-end revisiting a grown view almost always sees the same
committed actions plus a few newly committed ones.
:class:`SerialPrefixCache` finds that delta and inserts it — a newly
committed action's group is built from the entries the deltas brought
while it was undecided, so no query of the merged log is needed — and
rebuilds from scratch — the reference computation — when its carried
state is unsound:

* the view shrank or its compaction base changed (snapshot installed);
* a new entry arrived for an action already folded in (a lagging
  fragment filled in late).

A trim of the legality oracle's memo is handled by the checkpoints
themselves (:meth:`Checkpoints.node_before` re-steps them in the live
trie; detached nodes would stay correct but defeat the soak's memo
bound).

A view built with ``serial_cache=None`` makes a scheme build its
checkpoints afresh from the view
(:meth:`~repro.cc.base.CCScheme._committed_checkpoints`); the model
tests (``tests/test_serialcache.py``, ``tests/test_view.py``) compare the
cache against it, and the pinned run fingerprints of
``tests/test_sim_throughput.py`` check it end to end.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Iterable

from repro.txn.ids import ActionId, TxnStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.clocks.timestamps import Timestamp
    from repro.histories.events import Event
    from repro.replication.log import LogEntry
    from repro.replication.view import StatusSource, View
    from repro.spec.legality import LegalityOracle

_TS = itemgetter(0)
_SORT_KEY = attrgetter("sort_key")
_EVENT = attrgetter("event")


class Checkpoints:
    """Committed groups in timestamp order, a trie node after each.

    A row is ``(order_ts, tag, events)``: ``order_ts`` is the timestamp
    that places the group (begin or commit), ``tag`` the owner's (the
    action id for a front-end's cache, the commit timestamp for
    :class:`~repro.replication.object.SynchronizationState`).  Begin and
    commit timestamps are each unique — one Lamport clock at the
    transaction manager issues them — so the order is total.  The first
    group steps from ``base_state`` (a compaction snapshot's state;
    ``None`` is the type's initial state).

    Checkpoints are stepped lazily: ``_nodes[i]`` is the node after rows
    ``0..i``, valid for a prefix of the rows.  :meth:`insert` truncates
    that prefix at the insert position, :meth:`node_before` extends it
    as far as asked, so an insert costs the window from its position to
    wherever the next query starts, never the whole history.
    """

    __slots__ = ("rows", "base_state", "_nodes", "_trims_seen")

    def __init__(self, rows: Iterable[tuple] = (), base_state=None) -> None:
        self.rows: list[tuple["Timestamp", object, tuple["Event", ...]]] = list(rows)
        self.base_state = base_state
        self._nodes: list = []
        self._trims_seen = -1

    def __len__(self) -> int:
        return len(self.rows)

    def reset(self, rows: Iterable[tuple], base_state=None) -> None:
        """Replace every row (given in order) and the base; drop all
        checkpoints."""
        self.rows = list(rows)
        self.base_state = base_state
        self._nodes.clear()

    def position(self, ts: "Timestamp") -> int:
        """How many rows are ordered before ``ts``."""
        return bisect_left(self.rows, ts, key=_TS)

    def insert(self, rows: list[tuple]) -> int:
        """Insert ``rows`` (sorted) at their places; returns the position
        the first of them took — the first checkpoint dropped."""
        mine = self.rows
        first = rows[0][0]
        # Appending is the common case (commit order nearly always):
        # one comparison instead of a bisect's.
        if not mine or mine[-1][0] < first:
            position = len(mine)
            mine.extend(rows)
        else:
            position = bisect_left(mine, first, key=_TS)
            mine[position:] = sorted(mine[position:] + rows, key=_TS)
        del self._nodes[position:]
        return position

    def node_before(self, oracle: "LegalityOracle", position: int):
        """The trie node after the first ``position`` rows' events.

        Checkpoints taken before a trim of ``oracle``'s memo are dropped
        and re-stepped in the live trie.
        """
        nodes = self._nodes
        if self._trims_seen != oracle.cache_trims:
            nodes.clear()
            self._trims_seen = oracle.cache_trims
        if position == 0:
            return oracle._root_for(self.base_state)
        if len(nodes) < position:
            node = nodes[-1] if nodes else oracle._root_for(self.base_state)
            step = oracle._step
            for _ts, _tag, events in self.rows[len(nodes):position]:
                for event in events:
                    node = step(node, event)
                nodes.append(node)
        return nodes[position - 1]


class SerialPrefixCache:
    """Carried-forward checkpoints of one object's view.

    ``order`` is the object's scheme's ``serialization_order``
    (``"begin"`` or ``"commit"``): which timestamp places a committed
    action.  The cache holds the log its checkpoints were computed from
    and the classification of every action seen so far.  Owned by a
    front-end (one per object name, like the quorum view cache) because
    different front-ends visit replicas in different orders and
    therefore hold slightly different merged views.
    """

    __slots__ = (
        "order",
        "committed",
        "_log",
        "_aborted",
        "_pending",
        "_base",
        "_marks",
    )

    def __init__(self, order: str):
        self.order = order
        #: The committed actions folded into the checkpoints.
        self.committed: set[ActionId] = set()
        self._log = None  # the Log the checkpoints were computed from
        self._aborted: set[ActionId] = set()
        #: Each undecided action's entries in the log, collected from the
        #: deltas; its group when it commits.
        self._pending: defaultdict[ActionId, list["LogEntry"]] = defaultdict(list)
        self._base = None
        self._marks = Checkpoints()

    def checkpoints(self, view: "View") -> Checkpoints:
        """The view's committed groups in :attr:`order`, brought up to date.

        Row ``i`` is what the ``i``-th committed action of the view,
        sorted by its ``order`` timestamp, contributes to the reference
        serialization: ``(order_ts, action, events)``.
        """
        log = view.log
        if self._log is None or self._base is not view.base:
            return self._rebuild(view)
        # A mask difference when the grown log is on the cached log's
        # table; the O(n) frozenset algebra is the fallback (and stays
        # the correctness reference).
        delta = log.fresh_since(self._log)
        if delta is None:
            seen, entries = self._log.entry_set, log.entry_set
            if not (seen <= entries):
                return self._rebuild(view)
            delta = entries - seen

        pending = self._pending
        if delta:
            committed = self.committed
            aborted = self._aborted
            for entry in delta:
                action = entry.action
                if action in committed:
                    # A lagging entry for an already-folded action: the
                    # folded serialization is missing it.
                    return self._rebuild(view)
                if action not in aborted:
                    pending[action].append(entry)
        self._log = log

        if pending:
            status_of = view.statuses.status_of
            newly_committed: list[ActionId] = []
            decided_aborts = None
            for action in pending:
                status = status_of(action)
                if status is TxnStatus.COMMITTED:
                    newly_committed.append(action)
                elif status is TxnStatus.ABORTED:
                    if decided_aborts is None:
                        decided_aborts = []
                    decided_aborts.append(action)
            if decided_aborts is not None:
                for action in decided_aborts:
                    del pending[action]
                self._aborted.update(decided_aborts)
            if newly_committed:
                groups = [(action, pending.pop(action)) for action in newly_committed]
                self._marks.insert(serial_rows(view.statuses, self.order, groups))
                self.committed.update(newly_committed)
        return self._marks

    def _rebuild(self, view: "View") -> Checkpoints:
        """The reference computation: classify every action, sort, restart."""
        status_of = view.statuses.status_of
        entries_of = view.log.entries_of
        committed: set[ActionId] = set()
        aborted: set[ActionId] = set()
        pending: defaultdict[ActionId, list["LogEntry"]] = defaultdict(list)
        for action in view.log.actions():
            status = status_of(action)
            if status is TxnStatus.COMMITTED:
                committed.add(action)
            elif status is TxnStatus.ABORTED:
                aborted.add(action)
            else:
                pending[action] = list(entries_of(action))
        groups = [(action, entries_of(action)) for action in committed]
        rows = serial_rows(view.statuses, self.order, groups)
        self._marks.reset(rows, view.base_state)
        self._log = view.log
        self.committed = committed
        self._aborted = aborted
        self._pending = pending
        self._base = view.base
        return self._marks


def serial_rows(
    statuses: "StatusSource", order: str, groups: Iterable[tuple[ActionId, Iterable]]
) -> list[tuple]:
    """``(order_ts, action, events)`` per ``(action, entries)`` group, sorted
    by the action's ``order`` (``"begin"`` or ``"commit"``) timestamp; an
    action's events are its entries' in timestamp order."""
    ts_of = statuses.begin_ts_of if order == "begin" else statuses.commit_ts_of
    rows = []
    for action, entries in groups:
        events = tuple(map(_EVENT, sorted(entries, key=_SORT_KEY)))
        rows.append((ts_of(action), action, events))
    rows.sort(key=_TS)
    return rows
