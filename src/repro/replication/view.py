"""Views: merged quorum logs serialized for response choice.

A front-end merges the logs of an initial quorum into a view and chooses
a response legal for the view (paper, Section 3.2).  What "legal for the
view" means depends on the local atomicity property in force, so a
:class:`View` offers the serializations each concurrency-control scheme
needs:

* **commit order** (hybrid, and the committed part for locking):
  committed actions sorted by commit timestamp, the executing
  transaction's own events last;
* **begin order** (static): committed actions sorted by begin timestamp,
  with the executing transaction's events at *its* begin position — the
  events of later-begun committed actions form a suffix the chosen
  response must not invalidate.  The view supplies the classification
  (:meth:`View.committed_actions`, :meth:`View.events_of`); the ordering
  lives with its one consumer, :mod:`repro.cc.static_ts`, and its
  incremental form in :mod:`repro.replication.serialcache`.

Aborted actions' entries are ignored everywhere (recoverability: an
aborted action has no effect).
"""

from __future__ import annotations

from typing import Protocol

from repro.clocks.timestamps import Timestamp
from repro.histories.events import Event, SerialHistory
from repro.replication.log import Log
from repro.txn.ids import ActionId, TxnStatus


class StatusSource(Protocol):
    """Where a view learns transaction status and timestamps."""

    def status_of(self, action: ActionId) -> TxnStatus: ...

    def begin_ts_of(self, action: ActionId) -> Timestamp: ...

    def commit_ts_of(self, action: ActionId) -> Timestamp | None: ...


class View:
    """A merged log plus the status knowledge needed to serialize it.

    ``base`` is the compaction snapshot the log sits on, when any: its
    state stands in for the folded committed prefix, and the log passed
    in must already exclude the covered entries (the front-end filters).
    """

    def __init__(self, log: Log, statuses: StatusSource, base=None, serial_cache=None):
        self.log = log
        self.statuses = statuses
        self.base = base
        #: Optional serial cache (:mod:`repro.replication.serialcache`, the
        #: kind the object's scheme serializes by) the owning front-end
        #: threads through; ``None`` makes schemes recompute
        #: serializations from scratch (the reference the model tests
        #: compare the caches against).
        self.serial_cache = serial_cache

    @property
    def base_state(self):
        """The snapshot state the serializations start from (or None)."""
        return None if self.base is None else self.base.state

    # -- classification ------------------------------------------------------

    def committed_actions(self) -> tuple[ActionId, ...]:
        """Committed actions present in the view, in commit-timestamp order."""
        committed = [
            action
            for action in self.log.actions()
            if self.statuses.status_of(action) is TxnStatus.COMMITTED
        ]
        return tuple(
            sorted(committed, key=lambda a: self.statuses.commit_ts_of(a))
        )

    def active_actions(self) -> tuple[ActionId, ...]:
        return tuple(
            sorted(
                (
                    action
                    for action in self.log.actions()
                    if self.statuses.status_of(action) is TxnStatus.ACTIVE
                ),
                key=lambda a: self.statuses.begin_ts_of(a),
            )
        )

    def events_of(self, action: ActionId) -> tuple[Event, ...]:
        return tuple(entry.event for entry in self.log.entries_of(action))

    # -- serializations -------------------------------------------------------

    def commit_order_serial(self, own: ActionId | None = None) -> SerialHistory:
        """Committed events in commit order, ``own``'s events appended.

        This is the hybrid serialization in which ``own`` commits next:
        under hybrid atomicity a response legal for this serial history
        is the correct choice for the view.
        """
        events: list[Event] = []
        for action in self.committed_actions():
            if action != own:
                events.extend(self.events_of(action))
        if own is not None:
            events.extend(self.events_of(own))
        return tuple(events)

    def max_timestamp(self) -> Timestamp | None:
        """The largest entry timestamp, for Lamport clock witnessing.

        Uses :meth:`Log.max_entry`, which is O(n) without forcing the
        O(n log n) full sort on a freshly merged log.
        """
        last = self.log.max_entry()
        return last.ts if last is not None else None
