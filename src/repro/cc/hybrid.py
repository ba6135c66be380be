"""Hybrid concurrency control: commit-time timestamps plus dependency locks.

Hybrid atomicity serializes committed actions in the order of their
Commit events (Definition 3).  At runtime this means:

* a response for an invocation is chosen as if the executing transaction
  were to commit *next*: legal for the serial history of committed
  events in commit-timestamp order followed by the transaction's own
  events;
* short-term synchronization keeps concurrently *active* transactions
  from invalidating each other: transaction T may not execute an event
  related by the hybrid dependency relation (in either direction) to an
  event held by another active transaction.

The conflict raised is non-fatal — the blocked transaction may wait for
the holder to finish — matching the lock-based flavor of real hybrid
schemes (Weihl's commit-time timestamps, Avalon).
"""

from __future__ import annotations

from repro.cc.base import CCScheme
from repro.cc.conflicts import ConflictTable, hybrid_conflicts
from repro.dependency.relation import DependencyRelation
from repro.histories.events import Event, Invocation
from repro.replication.view import View
from repro.spec.datatype import SerialDataType
from repro.spec.legality import LegalityOracle
from repro.txn.ids import Transaction


class HybridCC(CCScheme):
    """Commit-time timestamp ordering with dependency-based locking.

    The conflict table is ``relation`` in either direction over the
    type's depth-4 alphabet, shared by every object of an equal data
    type under an equal relation (:func:`~repro.cc.conflicts.hybrid_conflicts`);
    the legality ``oracle`` stays this object's own and starts empty.
    """

    name = "hybrid"
    serialization_order = "commit"

    def __init__(
        self,
        datatype: SerialDataType,
        relation: DependencyRelation,
        oracle: LegalityOracle | None = None,
        conflicts: ConflictTable | None = None,
    ):
        super().__init__(datatype, oracle)
        if conflicts is None:
            conflicts = hybrid_conflicts(datatype, relation)
        self.conflicts = conflicts

    def choose_event(
        self,
        view: View,
        txn: Transaction,
        invocation: Invocation,
        sync,
    ) -> Event:
        event = self._commit_order_event(view, txn, invocation, sync)
        self._check_held(event, txn, sync, "conflicts with")
        return event
