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

The rules are decided once, in :meth:`choose_event`; *how* a
serialization is tested for legality comes in two interchangeable
forms.  From scratch (:meth:`_from_scratch`, the reference, used when
the view carries no serial cache, the cache has no checkpoints yet, or
the transaction's own entries are already among the committed ones)
every test sorts the committed groups and replays the whole serial from
the root.  From checkpoints (:meth:`_from_checkpoints`) the committed groups
stay sorted by begin timestamp with the legality-trie node after each
(:class:`~repro.replication.serialcache.BeginOrderCheckpoints`), so a
test starts at the checkpoint in front of the oldest position it
touches and replays only the tail window — bounded by the oldest active
transaction's begin position, not by how long the object has lived.
"""

from __future__ import annotations

from itertools import chain, combinations
from operator import itemgetter
from typing import Callable, Sequence

from repro.cc.base import CCScheme
from repro.clocks.timestamps import Timestamp
from repro.errors import ConflictError
from repro.histories.events import Event, Invocation, SerialHistory
from repro.replication.view import View
from repro.txn.ids import ActionId, Transaction

#: An active transaction's held events: ``(begin_ts, holder, events)``.
ActiveGroup = tuple[Timestamp, ActionId, tuple[Event, ...]]
#: ``legal(event, chosen)``: does the serialization stay legal with
#: ``event`` appended to the transaction's own events and the ``chosen``
#: active groups committed?
LegalityTest = Callable[[Event, Sequence[ActiveGroup]], bool]


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
        own_events = sync.own_events(txn.id)
        active_groups = self._active_groups(view, sync, txn.id)
        cache = view.serial_cache
        marks = None if cache is None else cache.checkpoints(view)
        if marks is None or cache.contains_committed(txn.id):
            candidates, legal = self._from_scratch(view, txn, invocation, own_events)
        else:
            candidates, legal = self._from_checkpoints(
                marks, txn, invocation, own_events, active_groups
            )

        blocking_holder: ActionId | None = None
        for event in candidates:
            holder = self._first_violation(active_groups, event, legal)
            if holder is None:
                return event
            if holder != _COMMITTED:
                blocking_holder = holder
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
        committed = sync.committed
        own = (committed.position(txn.begin_ts), sync.own_events(txn.id))
        if not committed.legal_with(self.oracle, [own]):
            raise ConflictError(
                f"certification failed for {txn.id}: static on-line "
                "invariant was broken (this indicates a scheme bug)",
                fatal=True,
            )

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _first_violation(
        active_groups: list[ActiveGroup], event: Event, legal: LegalityTest
    ):
        """The holder blamed for the first illegal static serialization.

        Checks every subset of the other active transactions, smallest
        first; returns ``None`` if every serialization stays legal, the
        sentinel ``_COMMITTED`` if even the committed-only serialization
        fails, or the :class:`ActionId` of an active transaction whose
        inclusion breaks legality.
        """
        for subset in chain.from_iterable(
            combinations(active_groups, size)
            for size in range(len(active_groups) + 1)
        ):
            if not legal(event, subset):
                return subset[-1][1] if subset else _COMMITTED
        return None

    def _from_scratch(
        self,
        view: View,
        txn: Transaction,
        invocation: Invocation,
        own_events: tuple[Event, ...],
    ) -> tuple[list[Event], LegalityTest]:
        """Candidates and legality by sorting and replaying the whole view."""
        committed_groups = [
            (view.statuses.begin_ts_of(action), view.events_of(action))
            for action in view.committed_actions()
            if action != txn.id
        ]

        def split(groups) -> tuple[SerialHistory, SerialHistory]:
            before: list[Event] = []
            after: list[Event] = []
            for begin_ts, events in sorted(groups, key=itemgetter(0)):
                (before if begin_ts < txn.begin_ts else after).extend(events)
            return tuple(before), tuple(after)

        # Candidate responses must at least work against committed events
        # alone (the empty subset of active transactions).
        before, _after = split(committed_groups)
        candidates = [
            Event(invocation, res)
            for res in sorted(
                self.oracle.responses(before + own_events, invocation), key=str
            )
        ]

        def legal(event, chosen):
            before, after = split(
                committed_groups
                + [(begin_ts, events) for begin_ts, _holder, events in chosen]
            )
            return self.oracle.is_legal(before + own_events + (event,) + after)

        return candidates, legal

    def _from_checkpoints(
        self,
        marks,
        txn: Transaction,
        invocation: Invocation,
        own_events: tuple[Event, ...],
        active_groups: list[ActiveGroup],
    ) -> tuple[list[Event], LegalityTest]:
        """The same candidates and legality, walking only the tail window.

        ``marks`` holds the committed groups :meth:`_from_scratch` sorts,
        already in begin order; the transaction's own events (plus the
        candidate) and each chosen active group are merged in at their
        begin positions, so the serial replayed is event for event the
        one :meth:`_from_scratch` builds — from the checkpoint in front
        of the first merged block instead of from the root.
        """
        oracle = self.oracle
        own_at = marks.position(txn.begin_ts)
        node = marks.node_before(oracle, own_at)
        for own in own_events:
            node = oracle._step(node, own)
        candidates = [
            Event(invocation, res) for res in self._ordered_responses(node, invocation)
        ]
        #: Everyone who may be merged in, in serialization (begin) order:
        #: ``(begin_ts, position, holder, events)``.
        slots = sorted(
            [
                (begin_ts, marks.position(begin_ts), holder, events)
                for begin_ts, holder, events in active_groups
            ]
            + [(txn.begin_ts, own_at, txn.id, own_events)],
            key=itemgetter(0),
        )

        def legal(event, chosen):
            holders = {holder for _begin, holder, _events in chosen}
            return marks.legal_with(
                oracle,
                [
                    (at, events + (event,)) if holder == txn.id else (at, events)
                    for _begin, at, holder, events in slots
                    if holder == txn.id or holder in holders
                ],
            )

        return candidates, legal

    @staticmethod
    def _active_groups(view: View, sync, own: ActionId) -> list[ActiveGroup]:
        return [
            (view.statuses.begin_ts_of(action), action, tuple(events))
            for action, events in sorted(
                sync.active_events.items(), key=lambda item: str(item[0])
            )
            if action != own and events
        ]


#: Sentinel distinguishing "conflicts with committed history" from a holder.
_COMMITTED = "committed"
