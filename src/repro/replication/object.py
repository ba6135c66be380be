"""Replicated objects and their synchronization state.

A :class:`ReplicatedObject` bundles what every front-end needs to
operate on one object: the serial data type, the quorum assignment and
the dependency relation it must satisfy, the concurrency-control
scheme, and two shared structures:

* :class:`SynchronizationState` — the object's logically centralized
  synchronization data: events held by active transactions (lock
  state), each transaction's own log entries (read-your-writes), and
  the committed history in the scheme's serialization order, which
  static certification walks and every front-end's view reads.

  *Modeling note*: real systems distribute this state (lock managers at
  repositories, certification at coordinators); centralizing it in the
  simulation is a documented simplification that does not touch the
  paper's subject — the availability of the *data* quorums, which all
  reads and writes still go through.

* :class:`HistoryRecorder` — an execution trace from which the test
  suite reconstructs the object's behavioral history and checks it
  against the theory kernel's membership checkers (the end-to-end
  correctness argument: the runtime's histories must lie in the
  specification its scheme claims to enforce).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clocks.timestamps import Timestamp
from repro.dependency.relation import DependencyRelation
from repro.histories.behavioral import (
    Abort,
    Begin,
    BehavioralHistory,
    Commit,
    Entry,
    Op,
)
from repro.histories.events import Event
from repro.quorum.assignment import QuorumAssignment
from repro.replication.log import LogEntry
from repro.replication.serialcache import SerialPrefixCache
from repro.spec.datatype import SerialDataType
from repro.spec.legality import LegalityOracle
from repro.txn.ids import ActionId, Transaction


class SynchronizationState:
    """Lock state, per-transaction entries, and the committed history."""

    def __init__(self, order: str) -> None:
        #: Events executed (and still held) by active transactions.
        self.active_events: dict[ActionId, list[Event]] = {}
        #: Each active transaction's own log entries on this object.
        self._own: dict[ActionId, list[LogEntry]] = {}
        #: Committed groups in ``order`` (the scheme's
        #: ``serialization_order``) with their legality checkpoints:
        #: what static certification (:meth:`StaticTimestampCC.pre_commit`)
        #: walks, and what every front-end's view that holds them all is
        #: served (:meth:`CCScheme._committed_checkpoints`).
        self.committed = SerialPrefixCache(order)

    def record(self, txn: ActionId, entry: LogEntry) -> None:
        self.active_events.setdefault(txn, []).append(entry.event)
        self._own.setdefault(txn, []).append(entry)

    def own_entries(self, txn: ActionId) -> tuple[LogEntry, ...]:
        return tuple(self._own.get(txn, ()))

    def own_events(self, txn: ActionId) -> tuple[Event, ...]:
        return tuple(entry.event for entry in self._own.get(txn, ()))

    def finalize_commit(self, txn: Transaction) -> None:
        own = self._own.pop(txn.id, None)
        if own:
            assert txn.commit_ts is not None
            self.committed.fold(txn, own)
        self.active_events.pop(txn.id, None)

    def finalize_abort(self, txn: Transaction) -> None:
        self.active_events.pop(txn.id, None)
        self._own.pop(txn.id, None)

    def trim_committed(self, snapshot) -> int:
        """Drop the committed groups compaction ``snapshot`` folded.

        Bounded-memory maintenance: the committed-group list otherwise
        grows for the life of the object.  Trimming is sound solely for
        commit-order schemes — static certification walks the full
        begin-order history at commit time — so callers gate on
        ``cc.serialization_order``, exactly as log compaction does, and
        pass the snapshot every replica now sits on: the groups at or
        before its ``last_commit_ts`` are precisely the folded ones.
        From then on the rows start at its state and serve the views on
        it; views on any other base take the reference rows.  Returns
        how many groups were dropped.
        """
        return self.committed.trim(snapshot)


@dataclass
class HistoryRecorder:
    """An append-only trace of one object's execution."""

    trace: list[tuple[str, ActionId, Event | None]] = field(default_factory=list)
    begin_ts: dict[ActionId, Timestamp] = field(default_factory=dict)

    def record_op(self, txn: Transaction, event: Event) -> None:
        self.begin_ts.setdefault(txn.id, txn.begin_ts)
        self.trace.append(("op", txn.id, event))

    def record_commit(self, txn: Transaction) -> None:
        self.trace.append(("commit", txn.id, None))

    def record_abort(self, txn: Transaction) -> None:
        self.trace.append(("abort", txn.id, None))

    def forget(self, actions: "frozenset[ActionId] | set[ActionId]") -> int:
        """Drop trace rows and begin stamps of fully retired actions.

        Bounded-memory maintenance, paired with transaction retirement:
        once a cluster-wide compaction has folded an action out of every
        log, its trace rows serve no live consumer (deep audits that
        need full histories don't run maintenance).  Afterwards
        :meth:`to_behavioral_history` describes the surviving suffix
        only.  Returns the number of rows dropped.
        """
        if not actions:
            return 0
        before = len(self.trace)
        self.trace = [row for row in self.trace if row[1] not in actions]
        for action in actions:
            self.begin_ts.pop(action, None)
        return before - len(self.trace)

    def to_behavioral_history(self) -> BehavioralHistory:
        """The object's behavioral history in the kernel's canonical form.

        Begin entries for every participating action are placed at the
        front in begin-timestamp order (the order static atomicity
        serializes by); operation, Commit, and Abort entries follow in
        execution order.
        """
        participants = sorted(self.begin_ts, key=lambda a: self.begin_ts[a])
        entries: list[Entry] = [Begin(str(a)) for a in participants]
        known = set(participants)
        for kind, action, event in self.trace:
            if action not in known:
                continue  # commit/abort of a txn that never executed here
            if kind == "op":
                assert event is not None
                entries.append(Op(event, str(action)))
            elif kind == "commit":
                entries.append(Commit(str(action)))
            else:
                entries.append(Abort(str(action)))
        return BehavioralHistory(entries)


class ReplicatedObject:
    """A named, typed, quorum-replicated object."""

    def __init__(
        self,
        name: str,
        datatype: SerialDataType,
        assignment: QuorumAssignment,
        relation: DependencyRelation,
        cc,
        oracle: LegalityOracle | None = None,
    ):
        self.name = name
        self.datatype = datatype
        self.assignment = assignment
        #: The dependency relation every assignment this object runs
        #: must satisfy (:attr:`ObjectSpec.resolved_relation
        #: <repro.replication.keyspace.ObjectSpec.resolved_relation>`).
        self.relation = relation
        #: Configuration epoch, bumped by every successful online
        #: reconfiguration (see :mod:`repro.replication.reconfig`).
        #: Front-ends stamp the epoch they operated under onto their
        #: quorum spans, which is how the auditor's ``reconfig-epoch``
        #: monitor proves no one kept using a superseded assignment.
        self.epoch = 0
        self.cc = cc
        self.oracle = oracle or cc.oracle
        self.sync = SynchronizationState(cc.serialization_order)
        self.recorder = HistoryRecorder()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicatedObject({self.name!r}, {self.datatype.name}, "
            f"cc={self.cc.name}, sites={self.assignment.n_sites})"
        )
