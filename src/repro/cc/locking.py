"""Strong dynamic concurrency control: commutativity-based two-phase locking.

Strong dynamic atomicity (Definition 7) requires a history to be
serializable in *every* order consistent with the ``precedes`` order,
all serializations equivalent.  Two-phase locking over a
type-specific commutativity conflict table (Schwarz–Spector, Argus,
TABS) enforces exactly this: a transaction may execute an event only if
it commutes with every event held by every other active transaction, and
locks are held until commit or abort.

The conflict raised on a lock clash is non-fatal (the transaction can
wait), so the workload driver pairs this scheme with waits-for-graph
deadlock detection (:mod:`repro.txn.deadlock`).

The conflict table is the event-level commutativity relation of
Definition 8 — the very relation whose invocation-level projection is
the minimal dynamic dependency relation (Theorem 10).  The paper's
observation that locking ties concurrency *and* availability to the same
commutativity structure is literally this shared table.
"""

from __future__ import annotations

from repro.cc.base import CCScheme
from repro.cc.conflicts import ConflictTable, commutativity_conflicts
from repro.histories.events import Event, Invocation
from repro.replication.view import View
from repro.spec.datatype import SerialDataType
from repro.spec.legality import LegalityOracle
from repro.txn.ids import Transaction


class DynamicLockingCC(CCScheme):
    """Two-phase locking on the type's commutativity conflict table.

    The table is shared by every object of an equal data type
    (:func:`~repro.cc.conflicts.commutativity_conflicts`); the legality
    ``oracle`` stays this object's own and starts empty.
    """

    name = "dynamic"
    serialization_order = "commit"

    def __init__(
        self,
        datatype: SerialDataType,
        oracle: LegalityOracle | None = None,
        conflicts: ConflictTable | None = None,
        commutativity_depth: int = 4,
    ):
        super().__init__(datatype, oracle)
        if conflicts is None:
            conflicts = commutativity_conflicts(datatype, commutativity_depth)
        self.conflicts = conflicts

    def choose_event(
        self,
        view: View,
        txn: Transaction,
        invocation: Invocation,
        sync,
    ) -> Event:
        # Locking guarantees all precedes-consistent serializations are
        # equivalent, so the commit-order serialization is as good as any.
        event = self._commit_order_event(view, txn, invocation)
        self._check_held(event, txn, sync, "does not commute with")
        return event
