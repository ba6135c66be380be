"""Log compaction: folding committed prefixes into snapshot states.

A replicated object's log grows without bound; real deployments
truncate it.  Quorum consensus permits a type-safe compaction: replay
the events of *committed* actions (in commit-timestamp order) into a
single state value, record which actions it covers, and let views start
from that state instead of the folded entries.  Entries of aborted
actions are simply discarded (they never serialize); entries of active
actions are retained verbatim.

Soundness requires the serialization order to put every covered action
before everything that comes later, which holds for the commit-order
properties (hybrid, strong dynamic: any action still active at
compaction time commits afterwards, hence serializes after the
snapshot) but **not** for static atomicity, where a transaction that
began before the compacted actions may still serialize *between* them.
:func:`compact` therefore refuses objects running the static scheme.

Like reconfiguration, compaction is a quiesced, administrative
operation: it drains a transversal of every final coterie (so the
merged log provably contains every committed event), computes the
snapshot, and installs it on every reachable repository, which drop
their covered entries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Hashable

from repro.clocks.timestamps import Timestamp
from repro.errors import SpecificationError, UnavailableError
from repro.replication.log import Log, LogEntry
from repro.replication.object import ReplicatedObject
from repro.replication.reconfig import hits_every, needs_coverage
from repro.replication.repository import read_walk, walk
from repro.replication.view import StatusSource
from repro.sim.network import Network
from repro.txn.ids import ActionId, TxnStatus


@dataclass(frozen=True)
class Snapshot:
    """A folded committed prefix: state, coverage, and bookkeeping."""

    #: The object state after replaying the covered actions' events in
    #: commit-timestamp order.
    state: Hashable
    #: Actions whose events the snapshot subsumes.
    covered: frozenset[ActionId]
    #: Commit timestamp of the last covered action (diagnostics).
    last_commit_ts: Timestamp | None
    #: How many log entries were folded (diagnostics).
    events_folded: int
    #: Aborted actions whose entries are garbage (never serialize).
    discarded: frozenset[ActionId] = frozenset()
    #: Action ids already *pruned* from the coverage bookkeeping (see
    #: :meth:`prune`) — a count, because the whole point of pruning is
    #: not to keep the ids.
    retired: int = 0

    def subsumes(self, other: "Snapshot | None") -> bool:
        return other is None or (
            other.covered <= self.covered
            and other.discarded <= self.discarded
        )

    @cached_property
    def dropped(self) -> frozenset[ActionId]:
        """Every action whose entries repositories may discard.

        Cached: repositories consult this on every write-filter, and
        over a long run the union would otherwise be recomputed
        millions of times.  (``cached_property`` stores through
        ``__dict__``, which frozen non-slots dataclasses permit.)
        """
        return self.covered | self.discarded

    def prune(self, keep: frozenset[ActionId] = frozenset()) -> "Snapshot":
        """This snapshot with coverage bookkeeping outside ``keep`` forgotten.

        ``covered``/``discarded`` grow with every compaction, so over a
        million-op run the *bookkeeping* of compaction becomes the
        memory leak.  Pruning is sound only at a quiesced boundary
        where the snapshot has been installed on **every** replica of
        the object: the pruned actions' entries are then gone from
        every log, and no in-flight view, merge, or future compaction
        can mention them again — remembering that they were dropped
        serves nobody.  Callers installing a pruned snapshot must use
        :meth:`~repro.replication.repository.Repository.replace_snapshot`
        (administrative), since shrinking coverage fails the monotone
        ``install_snapshot`` subsumption check by design.
        """
        retired = len(self.covered - keep) + len(self.discarded - keep)
        if not retired:
            return self
        return replace(
            self,
            covered=self.covered & keep,
            discarded=self.discarded & keep,
            retired=self.retired + retired,
        )


def build_snapshot(
    obj: ReplicatedObject,
    merged: Log,
    statuses: StatusSource,
    base: Snapshot | None = None,
) -> Snapshot | None:
    """Fold the committed actions of ``merged`` into a snapshot.

    Returns ``None`` when there is nothing new to fold.  ``base`` is the
    snapshot the log already sits on (its state seeds the replay).
    """
    committed = sorted(
        (
            action
            for action in merged.actions()
            if statuses.status_of(action) is TxnStatus.COMMITTED
        ),
        key=lambda a: statuses.commit_ts_of(a),
    )
    aborted = frozenset(
        action
        for action in merged.actions()
        if statuses.status_of(action) is TxnStatus.ABORTED
    )
    if base is not None:
        aborted |= base.discarded
    if not committed and not (aborted - (base.discarded if base else frozenset())):
        return None  # nothing new to fold or discard
    state = base.state if base is not None else obj.datatype.initial_state()
    covered = set(base.covered) if base is not None else set()
    folded = base.events_folded if base is not None else 0
    last_ts = base.last_commit_ts if base is not None else None
    for action in committed:
        for entry in merged.entries_of(action):
            outcomes = [
                next_state
                for response, next_state in obj.datatype.apply(
                    state, entry.event.inv
                )
                if response == entry.event.res
            ]
            if not outcomes:
                raise SpecificationError(
                    f"compaction replay diverged at {entry} — the log is "
                    "not a legal commit-order serialization"
                )
            state = outcomes[0]
            folded += 1
        covered.add(action)
        last_ts = statuses.commit_ts_of(action)
    if base is not None and covered == base.covered and aborted == base.discarded:
        return None
    return Snapshot(
        state=state,
        covered=frozenset(covered),
        discarded=aborted,
        last_commit_ts=last_ts,
        events_folded=folded,
    )


def compact(
    network: Network,
    repositories,
    obj: ReplicatedObject,
    statuses: StatusSource,
    coordinator_site: int = 0,
    *,
    sites: "tuple[int, ...] | None" = None,
) -> Snapshot | None:
    """Compact ``obj``'s logs cluster-wide; returns the installed snapshot.

    ``sites`` restricts the drain/install rotation — under a partially
    replicated keyspace pass the object's replica set, so compaction
    never reads (or installs on) a site that does not hold the object,
    which genuine partial replication forbids.  Default: every site.

    Raises :class:`UnavailableError` when the live sites cannot drain
    every final coterie, and :class:`SpecificationError` for objects
    whose scheme does not serialize in commit order.
    """
    if obj.cc.serialization_order != "commit":
        raise SpecificationError(
            "log compaction requires a commit-order scheme (hybrid or "
            "dynamic); static atomicity may serialize old transactions "
            "between compacted ones"
        )
    finals = [c for c in obj.assignment.final_coteries() if needs_coverage(c)]
    pool = tuple(sites) if sites is not None else tuple(range(network.n_sites))
    start = pool.index(coordinator_site) if coordinator_site in pool else 0
    order = [pool[(start + offset) % len(pool)] for offset in range(len(pool))]

    drained, reached, merged, best_base = read_walk(
        network, repositories, coordinator_site, order, obj.name, hits_every(finals)
    )
    if not drained:
        raise UnavailableError("compact", frozenset(pool) - reached)

    # ``merged`` holds nothing the base already covers or discards.
    snapshot = build_snapshot(obj, merged, statuses, best_base)
    if snapshot is None:
        return None
    # Install wherever reachable: no site set is ever enough to stop early.
    walk(
        network,
        repositories,
        coordinator_site,
        order,
        lambda repository: repository.install_snapshot(obj.name, snapshot),
        lambda _reached: False,
    )
    return snapshot
