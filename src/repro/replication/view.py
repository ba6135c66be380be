"""Views: merged quorum logs serialized for response choice.

A front-end merges the logs of an initial quorum into a view and chooses
a response legal for the view (paper, Section 3.2).  What "legal for the
view" means depends on the local atomicity property in force, and the
properties differ in one thing: which timestamp orders the committed
actions (Definition 3).

* **commit order** (hybrid, and the committed part for locking):
  committed actions sorted by commit timestamp, the executing
  transaction's own events last;
* **begin order** (static): committed actions sorted by begin timestamp,
  with the executing transaction's events at *its* begin position — the
  events of later-begun committed actions form a suffix the chosen
  response must not invalidate.

A :class:`View` supplies what both need: the merged log (an action's
entries), the classification (:meth:`View.committed_actions`) and the
statuses' timestamps.  The serialization itself is a list of checkpoints keyed by
the scheme's timestamp (:class:`~repro.replication.serialcache.Checkpoints`):
the object's own committed rows when the view holds every committed entry
(:mod:`repro.replication.serialcache`), else built afresh by
:meth:`~repro.cc.base.CCScheme._committed_checkpoints`.

Aborted actions' entries are ignored everywhere (recoverability: an
aborted action has no effect).
"""

from __future__ import annotations

from typing import Protocol

from repro.clocks.timestamps import Timestamp
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

    def __init__(self, log: Log, statuses: StatusSource, base=None):
        self.log = log
        self.statuses = statuses
        self.base = base

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

    def max_timestamp(self) -> Timestamp | None:
        """The largest entry timestamp, for Lamport clock witnessing.

        Uses :meth:`Log.max_entry`, which reads the table's sorted order
        from its newest end.
        """
        last = self.log.max_entry()
        return last.ts if last is not None else None
