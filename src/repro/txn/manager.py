"""The transaction manager: lifecycle, status, and two-phase commit.

The manager is the authority on transaction status and timestamps (the
:class:`~repro.replication.view.StatusSource` views consult), and runs
commitment across every object a transaction touched:

* **phase one** — each touched object's concurrency-control scheme
  certifies the commit (:meth:`~repro.cc.base.CCScheme.pre_commit`); a
  veto from any object aborts the transaction everywhere;
* **phase two** — a commit timestamp is drawn from the Lamport clock (the
  commit-order position hybrid atomicity serializes by) and every
  object's synchronization state and history recorder are finalized.

*Modeling note*: the manager is reliable and reachable in this
simulation — transaction status is assumed available the way the
paper's analysis assumes it, so that measured availability reflects the
*data* quorums under study rather than commit-protocol availability.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.clocks.lamport import LamportClock
from repro.clocks.timestamps import Timestamp
from repro.errors import (
    ConflictError,
    SpecificationError,
    TransactionAborted,
    TransactionError,
)
from repro.obs.trace import NULL_TRACER, Span, Tracer
from repro.txn.ids import ActionId, Transaction, TxnStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.replication.object import ReplicatedObject


class TransactionManager:
    """Begin, execute-time status, and atomic commitment."""

    def __init__(
        self, clock: LamportClock | None = None, *, tracer: Tracer | None = None
    ):
        self.clock = clock or LamportClock(site=-1)
        self._txns: dict[ActionId, Transaction] = {}
        self._objects: dict[str, "ReplicatedObject"] = {}
        self._seq = 0
        self.commits = 0
        self.aborts = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Open ``transaction`` spans, one per active traced transaction.
        self._txn_spans: dict[ActionId, Span] = {}
        #: The cluster's :class:`~repro.resilience.policy.RetryPolicy`,
        #: which every front-end's operations run under; ``None`` means
        #: quorum failures raise immediately.  Set by
        #: :meth:`Cluster.enable_resilience`.
        self.retry_policy = None

    # -- object registry ---------------------------------------------------

    def register(self, obj: "ReplicatedObject") -> "ReplicatedObject":
        """Add ``obj`` to the domain, which has one serialization order:
        local atomicity is global only if every object orders alike
        (Weihl).  Static (begin order) is refused beside hybrid or dynamic
        (commit order); see docs/KEYSPACE.md, "One order per keyspace"."""
        if obj.name in self._objects:
            raise TransactionError(f"object {obj.name!r} already registered")
        other = next(iter(self._objects.values()), None)
        order = obj.cc.serialization_order
        if other is not None and order != other.cc.serialization_order:
            raise SpecificationError(
                f"object {obj.name!r} serializes in {order} order, but "
                f"{other.name!r} serializes in {other.cc.serialization_order} "
                "order: one transaction domain needs one serialization order"
            )
        self._objects[obj.name] = obj
        return obj

    def object(self, name: str) -> "ReplicatedObject":
        try:
            return self._objects[name]
        except KeyError:
            raise TransactionError(f"unknown object {name!r}") from None

    @property
    def objects(self) -> dict[str, "ReplicatedObject"]:
        return dict(self._objects)

    # -- lifecycle ----------------------------------------------------------

    def begin(self, site: int = 0) -> Transaction:
        """Start a transaction; its begin timestamp fixes its static position."""
        self._seq += 1
        txn = Transaction(
            id=ActionId(self._seq, site),
            begin_ts=self.clock.tick(),
        )
        self._txns[txn.id] = txn
        if self.tracer.enabled:
            self._txn_spans[txn.id] = self.tracer.start_span(
                "transaction",
                kind="transaction",
                site=site,
                txn=str(txn.id),
                begin_ts=str(txn.begin_ts),
            )
        return txn

    def transaction_span(self, action: ActionId) -> Span | None:
        """The open trace span for ``action`` (None when untraced/closed)."""
        return self._txn_spans.get(action)

    def commit(self, txn: Transaction) -> None:
        """Two-phase commit across every touched object.

        Raises :class:`~repro.errors.TransactionAborted` when any
        object's scheme vetoes certification; the transaction is then
        aborted everywhere before the exception propagates.
        """
        self._require_active(txn)
        try:
            for name in sorted(txn.touched):
                obj = self.object(name)
                obj.cc.pre_commit(txn, obj.sync)
        except ConflictError as veto:
            self.abort(txn, reason=str(veto))
            raise TransactionAborted(txn.id, str(veto)) from veto
        txn.commit_ts = self.clock.tick()
        txn.status = TxnStatus.COMMITTED
        self.commits += 1
        for name in sorted(txn.touched):
            obj = self.object(name)
            obj.sync.finalize_commit(txn)
            obj.cc.on_finalize(txn, obj.sync)
            obj.recorder.record_commit(txn)
        span = self._txn_spans.pop(txn.id, None)
        if span is not None:
            span.annotate(commit_ts=str(txn.commit_ts), objects=sorted(txn.touched))
            self.tracer.end_span(span, outcome="committed")

    def abort(self, txn: Transaction, reason: str = "client abort") -> None:
        """Abort: undo is implicit — aborted entries are ignored by views."""
        self._require_active(txn)
        txn.status = TxnStatus.ABORTED
        txn.abort_reason = reason
        self.aborts += 1
        for name in sorted(txn.touched):
            obj = self.object(name)
            obj.sync.finalize_abort(txn)
            obj.cc.on_finalize(txn, obj.sync)
            obj.recorder.record_abort(txn)
        span = self._txn_spans.pop(txn.id, None)
        if span is not None:
            span.annotate(reason=reason, objects=sorted(txn.touched))
            self.tracer.end_span(span, outcome="aborted")

    def _require_active(self, txn: Transaction) -> None:
        if not txn.is_active:
            raise TransactionError(f"{txn} is not active")

    # -- StatusSource protocol ---------------------------------------------

    def status_of(self, action: ActionId) -> TxnStatus:
        return self._txns[action].status

    def begin_ts_of(self, action: ActionId) -> Timestamp:
        return self._txns[action].begin_ts

    def commit_ts_of(self, action: ActionId) -> Timestamp | None:
        return self._txns[action].commit_ts

    def transactions(self) -> Iterable[Transaction]:
        return self._txns.values()

    def lookup(self, action: ActionId) -> Transaction | None:
        """O(1) transaction lookup; ``None`` for unknown or retired ids."""
        return self._txns.get(action)

    # -- bounded-memory maintenance ----------------------------------------

    def retire(self, actions: Iterable[ActionId]) -> int:
        """Forget finalized transactions; returns how many were dropped.

        The transaction table otherwise grows for the life of the run,
        which a million-op soak cannot afford.  Retiring an action makes
        later ``status_of``/``begin_ts_of`` raise ``KeyError``, so the
        caller must guarantee nothing will ask about it again — the soak
        maintenance loop retires exactly the actions a cluster-wide log
        compaction has already dropped from every replica log (no view,
        certification, or monitor can name them anymore).  Active
        transactions are never retired, whatever the caller passes.
        """
        dropped = 0
        for action in tuple(actions):
            txn = self._txns.get(action)
            if txn is None or txn.is_active:
                continue
            del self._txns[action]
            self._txn_spans.pop(action, None)
            dropped += 1
        return dropped
