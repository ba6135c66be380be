"""Repositories: per-site stable storage for replicated object logs.

Repositories provide long-term storage for object state (paper,
Section 3.2).  Each repository lives at one site and stores, per object,
the subset of the object's log entries that final quorums have written
to it.  Storage is *stable*: a crash makes the repository unreachable
but loses nothing; on recovery it serves its pre-crash state (recovered
sites catch up naturally the next time they participate in a final
quorum, because writes carry whole updated views).

The stable-storage model can be made *earned* instead of assumed by
attaching a durable journal (see :mod:`repro.resilience.recovery`): the
in-memory dicts then play the role of volatile state, wiped on crash by
:meth:`lose_volatile` and rebuilt exactly — logs, snapshots, and
version counters — by :meth:`restart` replaying checkpoint + journal.

Beside the class live the two one-request-at-a-time *walks* over a set
of repositories (:func:`walk`, :func:`read_walk`): the per-site request
loop reconfiguration and compaction share.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.errors import SimulationError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.replication.log import EMPTY_LOG, Log, LogEntry
from repro.sim.network import Network, Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.recovery import SiteJournal


class Repository:
    """Stable per-site log storage, addressed through the network fabric."""

    def __init__(self, site: int, *, tracer: Tracer | None = None):
        self.site = site
        self._logs: dict[str, Log] = {}
        #: Compacted prefixes, per object (see repro.replication.snapshot).
        self._snapshots: dict[str, object] = {}
        #: Per-object version counters, bumped whenever the stored log
        #: (or its underlying snapshot) actually changes.  Front-ends key
        #: incremental view-merge caches on these, so the counter must
        #: move on every mutation a quorum read could observe.
        self._versions: dict[str, int] = {}
        #: Durable journal for crash-recovery replay; ``None`` keeps the
        #: plain stable-storage model (crashes lose nothing by fiat).
        #: Attached by :class:`~repro.resilience.recovery.RecoveryManager`.
        self.journal: "SiteJournal | None" = None
        #: The shard names this site is assigned, or ``None`` for a
        #: standalone repository that holds everything.  Set by
        #: ``build_keyspace``; storage itself stays permissive (a
        #: misrouted write *lands*, and the auditor's
        #: genuine-partial-replication monitor is what flags it —
        #: enforcement here would mask the very violations the mutation
        #: harness needs to exercise).
        self.shards: set[str] | None = None
        self.reads_served = 0
        self.writes_served = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- shard assignment ----------------------------------------------------

    def assign_shards(self, names) -> None:
        """Restrict this repository to the given shard names."""
        self.shards = set(names)

    def holds(self, object_name: str) -> bool:
        """Is ``object_name`` one of this site's shards?

        ``True`` for every object when no assignment was made — the
        fully replicated repository holds the whole keyspace.
        """
        return self.shards is None or object_name in self.shards

    def log_version(self, object_name: str) -> int:
        """Monotone per-object change counter (0 = never written)."""
        return self._versions.get(object_name, 0)

    def _bump(self, object_name: str) -> int:
        version = self._versions.get(object_name, 0) + 1
        self._versions[object_name] = version
        return version

    def read_log(self, object_name: str) -> Log:
        """Serve this repository's fragment of an object's log."""
        self.reads_served += 1
        log = self._logs.get(object_name, EMPTY_LOG)
        if self.tracer.enabled:
            self.tracer.event(
                "repo.read", site=self.site, object=object_name, entries=len(log)
            )
        return log

    def write_log(self, object_name: str, update: Log) -> int:
        """Merge a view written by a front-end into stable storage.

        Entries already folded into this repository's snapshot are not
        re-admitted (a stale writer may ship them back).  Returns the
        post-write log version, so batched writers can refresh their
        merge caches from the ack alone.
        """
        self.writes_served += 1
        incoming = len(update)
        snapshot = self._snapshots.get(object_name)
        current = self._logs.get(object_name, EMPTY_LOG)
        if snapshot is None:
            # The Log itself, not its entries: the stored log's store
            # remembers how much of the writer's store it has absorbed,
            # so only what the writer added since is examined, and the
            # stored log keeps one lineage (``fresh_since`` stays exact
            # for the audit scan and the quorum view caches).
            merged = current.extended(update)
        else:
            merged = current.extended(
                entry for entry in update if entry.action not in snapshot.dropped
            )
        if merged is not current:
            self._logs[object_name] = merged
            self._bump(object_name)
            if self.journal is not None:
                self.journal.record_log(object_name, merged)
        # Emitted after the merge so trace listeners (the online auditor)
        # observe the repository's post-write log state.
        if self.tracer.enabled:
            self.tracer.event(
                "repo.write",
                site=self.site,
                object=object_name,
                entries=incoming,
            )
        return self._versions.get(object_name, 0)

    def peek_log(self, object_name: str) -> Log:
        """Inspect a stored log without counting a served read.

        Observability-only accessor: the auditor's log-consistency
        monitor uses it so auditing never perturbs ``reads_served`` or
        emits ``repo.read`` events of its own.
        """
        return self._logs.get(object_name, EMPTY_LOG)

    # -- compaction ---------------------------------------------------------

    def read_snapshot(self, object_name: str):
        """The snapshot this repository's log sits on, or ``None``."""
        return self._snapshots.get(object_name)

    def install_snapshot(self, object_name: str, snapshot) -> None:
        """Adopt a snapshot and drop the entries it covers.

        Installing an older (subsumed) snapshot over a newer one is a
        no-op — installation is monotone in coverage.
        """
        current = self._snapshots.get(object_name)
        if current is None or snapshot.subsumes(current):
            self.replace_snapshot(object_name, snapshot)

    def replace_snapshot(self, object_name: str, snapshot) -> None:
        """Administratively swap the stored snapshot, bypassing subsumption.

        The maintenance hook behind :meth:`Snapshot.prune`: a pruned
        snapshot deliberately *shrinks* coverage bookkeeping, which the
        monotone :meth:`install_snapshot` refuses.  The caller asserts
        equivalence — every pruned action's entries are already gone
        from every replica log, so the smaller snapshot filters and
        seeds views identically.  The log is re-filtered and the
        version bumped exactly as a real installation would.
        """
        self._snapshots[object_name] = snapshot
        log = self._logs.get(object_name, EMPTY_LOG)
        filtered = Log(
            entry for entry in log if entry.action not in snapshot.dropped
        )
        self._logs[object_name] = filtered
        self._bump(object_name)
        if self.journal is not None:
            self.journal.record_snapshot(object_name, snapshot, filtered)

    def append_entry(self, object_name: str, entry: LogEntry) -> None:
        """Merge a single entry (used by anti-entropy and tests)."""
        self.writes_served += 1
        current = self._logs.get(object_name, EMPTY_LOG)
        added = current.add(entry)
        if added is not current:
            self._logs[object_name] = added
            self._bump(object_name)
            if self.journal is not None:
                self.journal.record_log(object_name, added)

    def stored_objects(self) -> tuple[str, ...]:
        """Names of every object this repository holds a log for, sorted."""
        return tuple(sorted(self._logs))

    def entry_count(self, object_name: str) -> int:
        """Number of log entries currently stored for ``object_name``."""
        return len(self._logs.get(object_name, EMPTY_LOG))

    # -- crash-recovery replay ----------------------------------------------

    def lose_volatile(self) -> None:
        """Drop all in-memory state (a crash under the journaled model).

        Requires an attached journal — without one this repository *is*
        stable storage and losing its dicts would silently lose data;
        raises :class:`~repro.errors.SimulationError` in that case.
        """
        if self.journal is None:
            raise SimulationError(
                f"repository {self.site} has no journal; refusing to lose "
                "state that could not be replayed"
            )
        self._logs = {}
        self._snapshots = {}
        self._versions = {}

    def restart(self) -> int:
        """Rebuild state from the journal's checkpoint + record suffix.

        Returns the number of journal records replayed.  Restoration is
        exact — logs, snapshots, and version counters all match their
        pre-crash values, so view caches keyed on versions stay sound.
        Raises :class:`~repro.errors.SimulationError` when no journal is
        attached.
        """
        if self.journal is None:
            raise SimulationError(
                f"repository {self.site} has no journal to restart from"
            )
        return self.journal.restore(self)


# -- the repository walks ---------------------------------------------------


def walk(
    network: Network,
    repositories: Sequence[Repository],
    origin: int,
    order: Iterable[int],
    serve: Callable[[Repository], object],
    enough: Callable[[frozenset[int]], bool],
) -> tuple[bool, dict[int, object]]:
    """Visit repositories one request at a time until ``enough`` are reached.

    The per-site loop of the replication protocol (paper, Section 3.2),
    written once for every caller that runs it one site at a time:
    reconfiguration's drain and prime, and compaction.  ``serve(repository)`` runs at each site of ``order`` in
    turn through :meth:`Network.request`; a site that times out is
    skipped; the walk stops as soon as ``enough(reached)`` holds —
    before the first request when the empty set already satisfies it.
    A write walk passes a ``serve`` that installs state and reads the
    reached sites off the reply keys; :func:`read_walk` is the read side.

    Returns ``(satisfied, replies)``: whether ``enough`` was met, and
    what each reached site served, in visit order.
    """
    replies: dict[int, object] = {}
    satisfied = enough(frozenset())
    for site in order:
        if satisfied:
            break
        try:
            replies[site] = network.request(
                origin, site, lambda s=site: serve(repositories[s])
            )
        except Timeout:
            continue
        satisfied = enough(frozenset(replies))
    return satisfied, replies


def read_walk(
    network: Network,
    repositories: Sequence[Repository],
    origin: int,
    order: Iterable[int],
    object_name: str,
    enough: Callable[[frozenset[int]], bool],
) -> tuple[bool, frozenset[int], Log, object]:
    """Merge an object's log fragments from the sites a :func:`walk` reaches.

    Returns ``(satisfied, reached, log, snapshot)``: the union of the
    fragments served, on the best (most-covering) compaction snapshot
    any reached site holds, with the entries that snapshot folded or
    discarded filtered out — a lagging repository may still hold them.
    Merges from scratch, no caches (the front-end's incremental view
    cache is not consulted).
    """
    satisfied, replies = walk(
        network,
        repositories,
        origin,
        order,
        lambda repository: (
            repository.read_log(object_name),
            repository.read_snapshot(object_name),
        ),
        enough,
    )
    merged, best = Log(), None
    for fragment, snapshot in replies.values():
        merged = merged.merge(fragment)
        if snapshot is not None and snapshot.subsumes(best):
            best = snapshot
    if best is not None:
        merged = Log(entry for entry in merged if entry.action not in best.dropped)
    return satisfied, frozenset(replies), merged, best
