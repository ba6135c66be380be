"""The concurrency-control scheme interface.

A scheme is consulted at three points in a transaction's life:

* :meth:`CCScheme.choose_event` — when a front-end has assembled a view
  and needs a response for an invocation.  The scheme serializes the
  view as its atomicity property dictates, picks a legal response, and
  checks synchronization conflicts against concurrently active
  transactions (raising :class:`~repro.errors.ConflictError` to block or
  abort).
* :meth:`CCScheme.pre_commit` — commit-time certification; raising
  :class:`~repro.errors.ConflictError` vetoes the commit.
* :meth:`CCScheme.on_finalize` — after commit or abort, to release
  whatever the scheme was holding.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.cc.conflicts import ConflictTable
from repro.errors import ConflictError
from repro.histories.events import Event, Invocation, SerialHistory
from repro.replication.view import View
from repro.spec.datatype import SerialDataType
from repro.spec.legality import LegalityOracle
from repro.txn.ids import Transaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.replication.object import SynchronizationState


def pick_response(
    oracle: LegalityOracle,
    prefix: SerialHistory,
    invocation: Invocation,
    suffix: SerialHistory = (),
    base_state=None,
) -> Event | None:
    """Choose a response legal between ``prefix`` and ``suffix``.

    Responses are tried in a deterministic order (sorted rendering) so
    runs are reproducible; for a nondeterministic type any legal choice
    is correct.  Returns ``None`` when no response works — under static
    atomicity that means the invocation arrived "too late".

    ``base_state`` replays everything from a compaction snapshot state
    instead of the type's initial state.
    """
    if base_state is None:
        for response in sorted(oracle.responses(prefix, invocation), key=str):
            event = Event(invocation, response)
            if oracle.is_legal_extension(prefix + (event,), suffix):
                return event
        return None
    candidates = oracle.responses_from(base_state, prefix, invocation)
    for response in sorted(candidates, key=str):
        event = Event(invocation, response)
        if oracle.is_legal_from(base_state, prefix + (event,) + suffix):
            return event
    return None


class CCScheme(ABC):
    """A local atomicity property's runtime enforcement."""

    #: Short name used in metrics and reports.
    name: str = "abstract"
    #: Which timestamp order the scheme serializes by ("begin"/"commit").
    serialization_order: str = "commit"
    #: Event-level conflict table of the schemes that hold locks until
    #: commit (hybrid, locking); ``None`` for static, which holds none.
    conflicts: ConflictTable | None = None

    def __init__(self, datatype: SerialDataType, oracle: LegalityOracle | None = None):
        self.datatype = datatype
        self.oracle = oracle or LegalityOracle(datatype)

    @abstractmethod
    def choose_event(
        self,
        view: View,
        txn: Transaction,
        invocation: Invocation,
        sync: "SynchronizationState",
    ) -> Event:
        """Pick the response event for ``invocation``, or raise ConflictError."""

    def pre_commit(self, txn: Transaction, sync: "SynchronizationState") -> None:
        """Commit-time certification; default: nothing to check."""

    def on_executed(
        self, txn: Transaction, event: Event, sync: "SynchronizationState"
    ) -> None:
        """Bookkeeping after an event is durably recorded; default: none."""

    def on_finalize(self, txn: Transaction, sync: "SynchronizationState") -> None:
        """Release scheme state after commit or abort; default: none."""

    def _commit_order_event(
        self, view: View, txn: Transaction, invocation: Invocation
    ) -> Event:
        """The response chosen as if ``txn`` were to commit next.

        Legal for the view's committed events in commit-timestamp order
        followed by the transaction's own — from the view's serial cache
        when the front-end threaded one through, from scratch (the
        reference) otherwise.  The cache yields the legality-trie node
        for the committed prefix; stepping it through the transaction's
        own events lands on exactly the node ``pick_response`` would
        reach by replaying ``view.commit_order_serial(own=txn.id)`` from
        ``view.base_state``, so its first successor in sorted-render order
        is the event ``pick_response`` chooses (every successor is legal).
        """
        oracle = self.oracle
        cache = view.serial_cache
        node = None if cache is None else cache.committed_node(view, oracle)
        if node is None or cache.contains_committed(txn.id):
            prefix = view.commit_order_serial(own=txn.id)
            event = pick_response(
                oracle, prefix, invocation, base_state=view.base_state
            )
            if event is None:
                raise self._too_late(invocation)
            return event
        step = oracle._step
        for entry in view.log.entries_of(txn.id):
            node = step(node, entry.event)
        successors = oracle._successors(node, invocation)
        if not successors:
            raise self._too_late(invocation)
        return successors[0][0]

    def _check_held(
        self, event: Event, txn: Transaction, sync: "SynchronizationState", clash: str
    ) -> None:
        """Raise a non-fatal conflict if ``event`` clashes with a held event.

        Per :attr:`conflicts`; ``clash`` words the relation in the message.
        """
        conflict = self.conflicts.conflict
        for holder, held_events in sync.active_events.items():
            if holder == txn.id:
                continue
            for held in held_events:
                if conflict(event, held):
                    raise ConflictError(
                        f"{event} {clash} uncommitted {held} of {holder}",
                        fatal=False,
                        holder=holder,
                    )

    @staticmethod
    def _too_late(invocation: Invocation) -> ConflictError:
        return ConflictError(
            f"no legal response for {invocation} at this serialization position",
            fatal=True,
        )
