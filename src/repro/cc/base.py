"""The concurrency-control scheme interface.

A scheme is consulted at three points in a transaction's life:

* :meth:`CCScheme.choose_event` — when a front-end has assembled a view
  and needs a response for an invocation.  The scheme serializes the
  view as its atomicity property dictates, picks a legal response, and
  checks synchronization conflicts against concurrently active
  transactions (raising :class:`~repro.errors.ConflictError` to block or
  abort).  Every scheme reads the view's committed groups the same way
  (:meth:`CCScheme._committed_checkpoints`), ordered by the timestamp
  its :attr:`CCScheme.serialization_order` names: the object's own
  committed rows when the view holds every committed entry, else built
  afresh from the view.
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
from repro.histories.events import Event, Invocation
from repro.replication.serialcache import Checkpoints, serial_rows
from repro.replication.view import View
from repro.spec.datatype import SerialDataType
from repro.spec.legality import LegalityOracle
from repro.txn.ids import Transaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.replication.object import SynchronizationState


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

    def _committed_checkpoints(
        self, view: View, txn: Transaction, sync: "SynchronizationState"
    ) -> Checkpoints:
        """The view's committed groups other than ``txn``'s, in
        :attr:`serialization_order`, with their legality checkpoints.

        The object's own rows (``sync.committed``) when the view holds
        every committed entry of the object; otherwise built afresh from
        the view, the reference those rows are checked against.
        """
        marks = sync.committed.covering(view, txn)
        if marks is not None:
            return marks
        entries_of = view.log.entries_of
        groups = [
            (action, entries_of(action))
            for action in view.committed_actions()
            if action != txn.id
        ]
        return Checkpoints(
            serial_rows(view.statuses, self.serialization_order, groups),
            view.base_state,
        )

    def _commit_order_event(
        self,
        view: View,
        txn: Transaction,
        invocation: Invocation,
        sync: "SynchronizationState",
    ) -> Event:
        """The response chosen as if ``txn`` were to commit next.

        The first legal response, in sorted-render order, for the view's
        committed events in commit-timestamp order followed by the
        transaction's own: the legality-trie node after the last
        committed group (:meth:`_committed_checkpoints`), stepped through
        the transaction's own entries.
        """
        oracle = self.oracle
        marks = self._committed_checkpoints(view, txn, sync)
        node = marks.node_before(oracle, len(marks.rows))
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
