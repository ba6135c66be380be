"""Seeded protocol mutations for auditor fault injection.

Each mutation deliberately breaks one protocol invariant in a running
cluster so the fault-injection sweep (``python -m repro audit --sweep``)
can demonstrate the online auditor catches it.  Mutations are applied
*after* the :class:`~repro.obs.audit.Auditor` attaches — the auditor's
monitors capture the declared configuration at attach time, exactly the
way a production checker pins the reviewed config, so a mutation cannot
hide by rewriting the thing it is checked against.

Mutations are sabotage, not simulation features: they monkey-patch live
cluster components (quorum assignments, scheme hooks, the transaction
manager's clock, a repository's write path) and are intentionally not
reversible within a run.  Build a fresh cluster per mutated run.

Registry::

    MUTATIONS = {
        "quorum-intersection": ...  # single-site quorums, nothing intersects
        "early-lock-release":  ...  # drop sync state right after execution
        "timestamp-inversion": ...  # commit timestamp before begin timestamp
        "log-divergence":      ...  # forge a conflicting replica log entry
        "shard-misroute":      ...  # route ops through a non-holding site
        "stale-assignment":    ...  # front-end keeps pre-reconfig quorums
    }

Each entry is ``apply(cluster) -> str`` returning a one-line description
of the sabotage for reports.
"""

from __future__ import annotations

from typing import Callable

from repro.clocks.timestamps import Timestamp
from repro.histories.events import Event, Response
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.coterie import ThresholdCoterie
from repro.replication.log import LogEntry


def break_quorum_intersection(cluster) -> str:
    """Shrink every quorum to a single site.

    With one-site initial and final quorums over three or more sites,
    the intersection relation is empty: a front-end can read a view that
    misses committed entries entirely.  The auditor's declared-coterie
    membership check flags the very first undersized quorum.
    """
    for obj in cluster.tm.objects.values():
        n = obj.assignment.n_sites
        quorums = OperationQuorums(
            initial=ThresholdCoterie(n, 1), final=ThresholdCoterie(n, 1)
        )
        obj.assignment = QuorumAssignment(
            n, {op: quorums for op in obj.assignment.operation_names}
        )
    return "replaced all quorum coteries with single-site thresholds"


def release_locks_early(cluster) -> str:
    """Drop synchronization state the moment an event executes.

    Correct schemes hold executed events in ``active_events`` until
    commit or abort (two-phase locking / dependency locks); this
    mutation wraps each scheme's ``on_executed`` hook to discard the
    transaction's held events immediately, so concurrent transactions
    stop conflicting with it.
    """
    for obj in cluster.tm.objects.values():
        original = obj.cc.on_executed

        def mutated(txn, event, sync, _original=original):
            _original(txn, event, sync)
            sync.active_events.pop(txn.id, None)

        obj.cc.on_executed = mutated
    return "synchronization state released immediately after each event"


class _CorruptNextTick:
    """A clock wrapper that corrupts its next timestamp draw.

    Installed around one ``TransactionManager.commit`` call: the single
    tick inside (the commit-timestamp draw) comes back *before* the
    committing transaction's begin timestamp, at a site (-9) no real
    clock uses, so the corrupt timestamp is unique and cannot collide
    with legitimate log or commit timestamps.
    """

    def __init__(self, real, txn, state):
        self._real = real
        self._txn = txn
        self._state = state

    def tick(self) -> Timestamp:
        ts = self._real.tick()
        if not self._state["done"]:
            self._state["done"] = True
            return Timestamp(self._txn.begin_ts.counter, site=-9)
        return ts

    def witness(self, other: Timestamp) -> Timestamp:
        return self._real.witness(other)

    def __getattr__(self, name):
        return getattr(self._real, name)


def invert_timestamps(cluster) -> str:
    """Hand one transaction a commit timestamp before its begin timestamp.

    The second transaction to reach commit phase two draws a corrupted
    commit timestamp ``(begin.counter, site=-9)``, which orders *before*
    its begin timestamp ``(begin.counter, site>=-1)`` — breaking the
    monotone commit order hybrid atomicity serializes by.
    """
    tm = cluster.tm
    original = tm.commit
    state = {"done": False}

    def mutated(txn, _original=original, _tm=tm, _state=state):
        if _tm.commits >= 1 and not _state["done"]:
            real = _tm.clock
            _tm.clock = _CorruptNextTick(real, txn, _state)
            try:
                return _original(txn)
            finally:
                _tm.clock = real
        return _original(txn)

    tm.commit = mutated
    return "second committing transaction draws a pre-begin commit timestamp"


def diverge_logs(cluster) -> str:
    """Forge a conflicting entry in repository 0's stable storage.

    After repository 0's first successful log write, a second entry is
    forged at the *same* Lamport timestamp as the newest stored entry
    but with a different response — two replicas (or one replica's own
    log) now disagree about what happened at that timestamp, which the
    log-consistency monitor detects at that step's close or final sweep.
    """
    repo = cluster.repositories[0]
    original = repo.write_log
    state = {"done": False}

    def mutated(object_name, update, _original=original, _repo=repo, _state=state):
        _original(object_name, update)
        log = _repo._logs.get(object_name)
        if not _state["done"] and log is not None and len(log):
            victim = log.ordered()[-1]
            forged = LogEntry(
                victim.ts,
                Event(victim.event.inv, Response("Forged", ())),
                victim.action,
            )
            _repo._logs[object_name] = log.add(forged)
            _state["done"] = True

    repo.write_log = mutated
    return "forged a conflicting log entry at an existing timestamp on site 0"


def misroute_shard(cluster) -> str:
    """Route every partially replicated object through a non-holding site.

    The router's visit order for each object whose replica set is a
    strict subset of the cluster gains the lowest non-holding site at
    the *front*, so the very next operation on any such object probes —
    and, because storage is permissive, logs at — a site that was never
    assigned the shard.  The genuine-partial-replication monitor flags
    the step that served the stray site and the polluted quorum.

    Requires a sharded keyspace: raises
    :class:`~repro.errors.SpecificationError` on a fully replicated
    cluster, where every site holds everything and no misroute exists.
    """
    from repro.errors import SpecificationError

    router, placement = cluster.router, cluster.placement
    all_sites = set(range(placement.n_sites))
    outsiders = {}
    for name in placement.object_names():
        missing = all_sites - set(placement.replicas(name))
        if missing:
            outsiders[name] = min(missing)
    if not outsiders:
        raise SpecificationError(
            "shard-misroute needs a partially replicated object; every "
            "object in this keyspace is placed at all sites"
        )
    original = router.route

    def mutated(frontend_site, name, _original=original, _outsiders=outsiders):
        route = _original(frontend_site, name)
        stray = _outsiders.get(name)
        if stray is None:
            return route
        return (stray,) + tuple(s for s in route if s != stray)

    router.route = mutated
    return (
        f"router visits a non-holding site first for {len(outsiders)} "
        "partially replicated object(s)"
    )


def stale_assignment(cluster) -> str:
    """One front-end keeps using a superseded quorum assignment.

    The cluster's first object is legitimately reconfigured online (to
    the always-valid read-everything/write-anywhere layout over its
    replica set, via the full drain-and-prime hand-over, epoch bump and
    ``reconfig.switch`` announcement) — but front-end 0's assignment
    resolution for that object is frozen at the pre-switch
    ``(assignment, epoch)`` first, modeling a front-end that missed the
    view change.  Every subsequent operation front-end 0 runs on the
    object assembles quorums of the *old* configuration and stamps the
    old epoch on its quorum spans, which the ``reconfig-epoch`` monitor
    flags against the epoch the switch announced.
    """
    from repro.quorum.coterie import SubsetThresholdCoterie
    from repro.replication.reconfig import reconfigure

    victim_fe = cluster.frontends[0]
    name = sorted(cluster.tm.objects)[0]
    obj = cluster.tm.object(name)
    replicas = frozenset(cluster.placement.replicas(name))

    # Freeze front-end 0's view of the object *before* the switch.
    stale = victim_fe._assignment_of(obj)
    original = victim_fe._assignment_of

    def mutated(target, _original=original, _name=name, _stale=stale):
        if target.name == _name:
            return _stale
        return _original(target)

    victim_fe._assignment_of = mutated

    # Legitimate reconfiguration: read-everything initial quorums with
    # single-site finals over the replica set — totally intersecting,
    # hence valid under any dependency relation, and different from any
    # seed layout on two or more replicas.
    n = obj.assignment.n_sites
    new_assignment = QuorumAssignment(
        n,
        {
            op: OperationQuorums(
                initial=SubsetThresholdCoterie(n, replicas, len(replicas)),
                final=SubsetThresholdCoterie(n, replicas, 1),
            )
            for op in obj.assignment.operation_names
        },
    )
    reconfigure(
        cluster.network,
        cluster.repositories,
        obj,
        new_assignment,
        placement=cluster.placement,
        frontends=cluster.frontends,
        tracer=cluster.tracer,
    )
    return (
        f"front-end 0 pinned to the pre-switch assignment of {name!r} "
        f"(epoch {stale[1]}) after an online reconfiguration to epoch "
        f"{obj.epoch}"
    )


#: Mutation registry: name -> apply(cluster) -> description.
MUTATIONS: dict[str, Callable[..., str]] = {
    "quorum-intersection": break_quorum_intersection,
    "early-lock-release": release_locks_early,
    "timestamp-inversion": invert_timestamps,
    "log-divergence": diverge_logs,
    "shard-misroute": misroute_shard,
    "stale-assignment": stale_assignment,
}

#: Which invariant each mutation is expected to trip (used by the sweep
#: to verify the auditor caught the *seeded* fault, not a bystander).
EXPECTED_INVARIANT = {
    "quorum-intersection": "quorum-intersection",
    "early-lock-release": "lock-discipline",
    "timestamp-inversion": "timestamp-order",
    "log-divergence": "log-consistency",
    "shard-misroute": "genuine-partial-replication",
    "stale-assignment": "reconfig-epoch",
}
