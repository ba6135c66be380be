"""Each object's committed serialization, kept once and read by every view.

Every scheme chooses its responses against a serial history of the
view's committed events (paper, Definition 3): in commit-timestamp
order for hybrid and locking, in begin-timestamp order for static.  The
reference implementation rebuilds that history from the view on every
operation — an O(n log n) classify-and-sort over all actions in the log
— and then replays it through the legality trie, O(n) memoized hops.

The two orders differ only in which timestamp places a committed action,
so one structure serves both.  :class:`Checkpoints` keeps the committed
groups sorted by that timestamp, with the trie node reached after each
group (a checkpoint).  A group arriving anywhere — in begin order a
transaction that began early and committed late — is an ordered insert:
it invalidates only the checkpoints from its position to the tail, and a
query starts from the checkpoint in front of the oldest position it
touches.

An object's committed groups are decided in one place: the transaction
manager commits a transaction at every object it touched, and the
object's :class:`SerialPrefixCache` (held by its
:class:`~repro.replication.object.SynchronizationState`) folds that
group in then, once for every front-end.  A view is served these rows
when it holds every committed entry they were built from — one AND of
the cache's mask against the view's log mask.  Every catalog object runs
intersecting quorums, so nearly every view does.  Its committed groups
in order are then the object's, with statuses from the same transaction
manager, so the rows and checkpoints equal what the reference builds.
After soak's compaction the rows start at the snapshot they were
trimmed to (:meth:`SerialPrefixCache.trim`), and serve the views that
sit on that snapshot object.

One entry can sit in a served view and in no group: a degraded read's
stray (logged at some sites after its final quorum failed, never
recorded).  The rows leave it out, as the recorded history does; the
reference keeps it in its transaction's group.  Where the read chose it
the two agree, but a conflicting group ordered in front of the stray's
after the read (its transaction held no lock for it) can make the stray
illegal: the reference then reaches a dead node and refuses what the
rows, like the recorded history, allow — in either order.

The reference answers everything else (:meth:`SerialPrefixCache.covering`
returns ``None``): a view on another compaction snapshot than the rows',
a view missing a committed entry, and an executing transaction already
committed.  A trim of the legality oracle's memo is handled by the
checkpoints themselves (:meth:`Checkpoints.node_before` re-steps them in
the live trie; detached nodes would stay correct but defeat the soak's
memo bound).

The model tests (``tests/test_serialcache.py``, ``tests/test_view.py``)
compare the rows against the reference built afresh
(:meth:`~repro.cc.base.CCScheme._committed_checkpoints`), and the pinned
run fingerprints of ``tests/test_sim_throughput.py`` check it end to end.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Iterable

from repro.txn.ids import ActionId, TxnStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.clocks.timestamps import Timestamp
    from repro.histories.events import Event
    from repro.replication.log import LogEntry
    from repro.replication.snapshot import Snapshot
    from repro.replication.view import StatusSource, View
    from repro.spec.legality import LegalityOracle
    from repro.txn.ids import Transaction

_TS = itemgetter(0)
_SORT_KEY = attrgetter("sort_key")
_EVENT = attrgetter("event")


class Checkpoints:
    """Committed groups in timestamp order, a trie node after each.

    A row is ``(order_ts, action, events)``: ``order_ts`` is the
    timestamp that places the group (begin or commit).  Begin and commit
    timestamps are each unique — one Lamport clock at the transaction
    manager issues them — so the order is total.  The first group steps
    from ``base_state`` (a compaction snapshot's state; ``None`` is the
    type's initial state).

    Checkpoints are stepped lazily: ``_nodes[i]`` is the node after rows
    ``0..i``, valid for a prefix of the rows.  :meth:`insert` truncates
    that prefix at the insert position, :meth:`node_before` extends it
    as far as asked, so an insert costs the window from its position to
    wherever the next query starts, never the whole history.
    """

    __slots__ = ("rows", "base_state", "_nodes", "_trims_seen")

    def __init__(self, rows: Iterable[tuple] = (), base_state=None) -> None:
        self.rows: list[tuple["Timestamp", ActionId, tuple["Event", ...]]] = list(rows)
        self.base_state = base_state
        self._nodes: list = []
        self._trims_seen = -1

    def __len__(self) -> int:
        return len(self.rows)

    def reset(self, rows: Iterable[tuple]) -> None:
        """Replace every row (given in order); drop all checkpoints."""
        self.rows = list(rows)
        self._nodes.clear()

    def position(self, ts: "Timestamp") -> int:
        """How many rows are ordered before ``ts``."""
        return bisect_left(self.rows, ts, key=_TS)

    def insert(self, row: tuple) -> int:
        """Insert ``row`` at its place; returns that position — the first
        checkpoint dropped."""
        rows = self.rows
        # Appending is the common case (commit order always): one
        # comparison instead of a bisect's.
        if not rows or rows[-1][0] < row[0]:
            position = len(rows)
            rows.append(row)
        else:
            position = bisect_left(rows, row[0], key=_TS)
            rows.insert(position, row)
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
            for _ts, _action, events in self.rows[len(nodes):position]:
                for event in events:
                    node = step(node, event)
                nodes.append(node)
        return nodes[position - 1]


class SerialPrefixCache:
    """One object's committed groups in ``order``, with their checkpoints.

    ``order`` is the object's scheme's ``serialization_order``
    (``"begin"`` or ``"commit"``): which timestamp places a committed
    action.  :meth:`fold` adds a group per commit; :meth:`covering`
    hands the rows to a view that holds every entry they were built
    from.  ``_mask`` holds the bits of those entries (``_entries``) on
    ``_table``, one entry table of the views' log lineages; a view on
    another table has it re-expressed there once.  ``_base`` is the
    compaction snapshot the rows start at (``None``: the initial state).
    """

    __slots__ = ("order", "marks", "_entries", "_table", "_mask", "_base")

    def __init__(self, order: str):
        self.order = order
        self.marks = Checkpoints()
        #: The entries of every group in :attr:`marks`.
        self._entries: list["LogEntry"] = []
        self._table = None  # None: ``_mask`` is not expressed on any table
        self._mask = 0
        self._base = None

    def fold(self, txn: "Transaction", entries: Iterable["LogEntry"]) -> int:
        """Add committed ``txn``'s group of ``entries``; returns the
        position its row took (in commit order always the tail)."""
        entries = sorted(entries, key=_SORT_KEY)
        ts = txn.begin_ts if self.order == "begin" else txn.commit_ts
        position = self.marks.insert((ts, txn.id, tuple(map(_EVENT, entries))))
        self._entries.extend(entries)
        if self._table is not None:
            pos, mask = self._table.pos, self._mask
            for entry in entries:
                bit = pos.get(entry)
                if bit is None:
                    # Not on this table: re-expressed at the next query.
                    self._table = None
                    return position
                mask |= 1 << bit
            self._mask = mask
        return position

    def covering(self, view: "View", txn: "Transaction") -> Checkpoints | None:
        """The committed groups in :attr:`order` when ``view`` holds every
        entry of them, sits on the compaction snapshot they start at and
        ``txn`` is not committed; ``None`` otherwise (the caller builds
        the reference)."""
        if view.base is not self._base or txn.status is TxnStatus.COMMITTED:
            return None
        log = view.log
        if log._table is not self._table and not self._rebase(log._table):
            return None
        if self._mask & ~log._mask:
            return None
        return self.marks

    def _rebase(self, table) -> bool:
        """Express the mask on ``table``; ``False`` if it lacks an entry."""
        pos = table.pos
        mask = 0
        # The newest entries are the likeliest to be missing.
        for entry in reversed(self._entries):
            bit = pos.get(entry)
            if bit is None:
                return False
            mask |= 1 << bit
        self._table, self._mask = table, mask
        return True

    def trim(self, snapshot: "Snapshot") -> int:
        """Start the rows at compaction ``snapshot``: drop the groups it
        folded (ordered at or before its ``last_commit_ts``) with their
        entries; returns how many.  Meaningful in commit order only."""
        rows = self.marks.rows
        floor = snapshot.last_commit_ts
        cut = 0 if floor is None else bisect_right(rows, floor, key=_TS)
        dropped = {action for _ts, action, _events in rows[:cut]}
        self.marks.reset(rows[cut:])
        self.marks.base_state = snapshot.state
        self._entries = [entry for entry in self._entries if entry.action not in dropped]
        self._table, self._mask, self._base = None, 0, snapshot
        return cut


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
