"""Static concurrency control: begin-timestamp ordering (Reed, Swallow).

Static atomicity serializes committed actions in the order of their
Begin events (Definition 3): a transaction's serialization position is
fixed the moment it begins.  ``Static(T)`` is moreover *on-line* — at
every moment, committing any subset of the active transactions must
yield a legal begin-order serialization — so enforcement is pessimistic,
at operation time (as in Reed's multiversion scheme), not by optimistic
commit-time certification:

* a response for an invocation must keep **every** static serialization
  legal: for every subset of the other active transactions, inserting
  the new event at this transaction's begin position among the
  committed-plus-subset events must be legal;
* a violation involving only committed events is fatal — the transaction
  arrived "too late" for its begin position (the timestamp-scheme abort);
* a violation involving an active transaction's uncommitted events is a
  non-fatal conflict — the transaction waits for the holder to finish,
  exactly like a reader blocked on an uncommitted version;
* commit needs no certification (the on-line invariant makes any commit
  safe); :meth:`pre_commit` re-checks it as a safety net.

The rules are decided in one walk (:func:`_blame`): the committed
groups stay sorted by begin timestamp with the legality-trie node after
each (:class:`~repro.replication.serialcache.Checkpoints`), and each
subset's serialization starts at the checkpoint in front of the oldest
begin position it merges in and replays only the tail window — bounded
by the oldest active transaction's begin position, not by how long the
object has lived.  The groups come from
:meth:`~repro.cc.base.CCScheme._committed_checkpoints`, which every
scheme shares: the object's own begin-ordered rows — the very rows
:meth:`pre_commit` walks — when the view holds every committed entry,
else rows built afresh from the view.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter

from repro.cc.base import CCScheme
from repro.errors import ConflictError
from repro.histories.events import Event, Invocation
from repro.replication.serialcache import Checkpoints
from repro.replication.view import View
from repro.txn.ids import Transaction


class StaticTimestampCC(CCScheme):
    """Begin-timestamp ordering with pessimistic operation-time checks."""

    name = "static"
    serialization_order = "begin"

    def choose_event(
        self,
        view: View,
        txn: Transaction,
        invocation: Invocation,
        sync,
    ) -> Event:
        if view.base_state is not None:
            raise ConflictError(
                "static atomicity cannot execute against a compacted view "
                "(begin-order serialization may interleave with the folded "
                "prefix)",
                fatal=True,
            )
        marks = self._committed_checkpoints(view, txn, sync)
        oracle = self.oracle
        own_events = sync.own_events(txn.id)
        own_at = marks.position(txn.begin_ts)
        node = marks.node_before(oracle, own_at)
        step = oracle._step
        for own in own_events:
            child = node.children.get(own)
            node = step(node, own) if child is None else child

        # Everyone who may be merged in, in serialization (begin) order:
        # ``(position, bit, events)``; the transaction's own slot is bit 1
        # (its events are the candidate's), the i-th other active
        # transaction in ``str`` order bit ``2 << i``.
        others = [
            (action, events)
            for action, events in sync.active_events.items()
            if events and action != txn.id
        ]
        slots = [(own_at, 1, None)]
        if others:
            if len(others) > 1:
                others.sort(key=lambda item: str(item[0]))
            begin_ts_of = view.statuses.begin_ts_of
            begins = sorted(
                [
                    (begin_ts_of(action), 2 << i, events)
                    for i, (action, events) in enumerate(others)
                ]
                + [(txn.begin_ts, 1, None)],
                key=itemgetter(0),
            )
            slots = [
                (own_at if bit == 1 else marks.position(begin), bit, events)
                for begin, bit, events in begins
            ]

        blocking_holder = None
        for event, child in oracle._successors(node, invocation):
            # ``child`` is the node after the committed rows in front of
            # the transaction's begin position, its own events and
            # ``event``: where every subset that merges nothing in front
            # of it stands after its own block.
            blamed = _blame(
                marks, oracle, slots, own_events + (event,), len(others), {1: child}
            )
            if blamed is None:
                return event
            if blamed:
                blocking_holder = others[blamed.bit_length() - 2][0]
        if blocking_holder is not None:
            raise ConflictError(
                f"{invocation} at {txn.id}'s begin position conflicts with "
                f"uncommitted events of {blocking_holder}",
                fatal=False,
                holder=blocking_holder,
            )
        raise self._too_late(invocation)

    def pre_commit(self, txn: Transaction, sync) -> None:
        """Safety net: the on-line invariant makes commits always safe."""
        committed = sync.committed.marks
        own = [(committed.position(txn.begin_ts), 1, None)]
        blamed = _blame(committed, self.oracle, own, sync.own_events(txn.id), 0, {})
        if blamed is not None:
            raise ConflictError(
                f"certification failed for {txn.id}: static on-line "
                "invariant was broken (this indicates a scheme bug)",
                fatal=True,
            )


def _blame(
    marks: Checkpoints,
    oracle,
    slots: list,
    own: tuple,
    others: int,
    reached: dict,
):
    """Who is blamed for the first illegal static serialization.

    Checks every subset of the ``others`` active transactions — by size,
    then in ``combinations`` order — merging the chosen ``slots`` and
    the transaction's own (bit 1, events ``own``) into ``marks``' rows at
    their begin positions.  Returns ``None`` if every serialization stays
    legal, ``0`` if even the committed-only one fails, or the bit of the
    last member of the first failing subset.

    Subsets that merge in the same slots up to some block reach the same
    trie node there, so the node after each block is kept per prefix in
    ``reached`` (keyed by the bits merged so far; the caller may seed
    it); a hop the walk makes is one a subset-by-subset replay would
    make, no more.
    """
    rows = marks.rows
    end = len(rows)
    step = oracle._step
    bits = [2 << i for i in range(others)]
    for size in range(others + 1):
        for chosen in combinations(bits, size):
            mask = 1 + sum(chosen)
            merged = 0
            node = None
            for position, bit, events in slots:
                if not mask & bit:
                    continue
                merged |= bit
                known = reached.get(merged)
                if known is not None:
                    node = known
                else:
                    if node is None:
                        node = marks.node_before(oracle, position)
                    else:
                        while at < position:
                            for event in rows[at][2]:
                                child = node.children.get(event)
                                node = step(node, event) if child is None else child
                            at += 1
                    for event in own if bit == 1 else events:
                        child = node.children.get(event)
                        node = step(node, event) if child is None else child
                    reached[merged] = node
                at = position
                if node.frontier is None:
                    break
            else:
                while at < end:
                    for event in rows[at][2]:
                        child = node.children.get(event)
                        node = step(node, event) if child is None else child
                    at += 1
                    if node.frontier is None:
                        break
                else:
                    continue
            return chosen[-1] if chosen else 0
    return None
