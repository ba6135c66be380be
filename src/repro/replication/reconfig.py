"""Quorum reconfiguration: changing an object's quorum assignment online.

The paper's Section 2 discusses reconfiguration-based methods (the
true-copy token scheme moves "true copies" around to adapt to access
patterns).  Quorum consensus supports the same adaptivity by *changing
the quorum assignment*: a deployment can shift between, say,
read-optimized (`1/n`) and write-optimized (`n/1`) layouts as the
workload changes, as long as the hand-over preserves the quorum
intersection invariants.

The hand-over rule implemented here:

1. **Drain the old configuration** — read the logs of a site set that
   intersects *every final quorum of the old assignment*, so the merged
   view provably contains every event any past operation installed.
2. **Prime the new configuration** — write that complete view to a site
   set that intersects *every initial quorum of the new assignment*, so
   every future view is guaranteed to include the pre-reconfiguration
   history regardless of which quorum it reads.
3. Atomically switch the object's assignment and bump its **epoch**
   (assignment metadata is kept with the transaction-manager state,
   reliable by the same modeling convention as transaction status).
   Every front-end's per-object plan is dropped for the new epoch, and
   a ``reconfig.switch`` point event announces the change to trace
   listeners — the auditor's ``reconfig-epoch`` monitor advances its
   expected epoch from exactly this event, so a front-end that keeps
   using the old quorums (the ``stale-assignment`` mutation) is flagged
   while a legitimate switch stays green.

Before any of it the new assignment must satisfy the object's
dependency relation (:func:`~repro.quorum.constraints.require_satisfies`,
the check a keyspace build runs): a layout that leaves one of its pairs
without intersecting quorums is refused, and nothing is drained.

Both site sets are *transversals* (hitting sets) of coteries; for a
threshold coterie of ``k`` of ``m`` member sites the cheapest
transversal is any ``m - k + 1`` of the members, and for explicit
coteries :func:`greedy_transversal` computes a greedy hitting set.  If
the live sites contain no transversal the reconfiguration raises
:class:`~repro.errors.UnavailableError` and changes nothing.

Drain and prime are each one quorum round over
:meth:`~repro.sim.network.Network.gather`, as a front-end's phases
are, closed by :func:`~repro.replication.frontend.conclude_step`.  The
hand-over draws only from the object's replica set, so genuine partial
replication is preserved, and it is instrumented: ``reconfig.drain`` /
``reconfig.prime`` spans (each naming the sites it ``attempted``, that
``served`` it and, when it succeeds, its ``quorum``) and the
``reconfig.switch`` point event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import QuorumError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.quorum.assignment import QuorumAssignment
from repro.quorum.constraints import require_satisfies
from repro.quorum.coterie import Coterie, EmptyCoterie, SubsetThresholdCoterie
from repro.replication.frontend import conclude_step
from repro.replication.log import Log
from repro.replication.object import ReplicatedObject
from repro.replication.viewcache import fold_view
from repro.sim.network import GatherResult, Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.replication.frontend import FrontEnd
    from repro.replication.keyspace import Placement


def is_transversal(coterie: Coterie, sites: frozenset[int]) -> bool:
    """Does ``sites`` intersect every quorum of ``coterie``?

    An :class:`EmptyCoterie` (or zero threshold) has the empty set as a
    quorum, which no site set intersects — but nothing was ever written
    under it either, so for hand-over purposes it needs no coverage;
    callers filter those out via :func:`needs_coverage`.
    """
    if isinstance(coterie, SubsetThresholdCoterie):
        if coterie.threshold == 0:
            return False
        return (
            len(sites & coterie.members)
            >= len(coterie.members) - coterie.threshold + 1
        )
    return all(sites & quorum for quorum in coterie.quorums())


def needs_coverage(coterie: Coterie) -> bool:
    """Whether the hand-over must hit this coterie at all.

    Final coteries with an empty quorum record nothing anywhere (their
    events live only in views), and unsatisfiable coteries admit no
    operations; neither constrains the hand-over.
    """
    if isinstance(coterie, EmptyCoterie):
        return False
    if isinstance(coterie, SubsetThresholdCoterie):
        return coterie.threshold > 0
    quorums = list(coterie.quorums())
    return bool(quorums) and all(quorum for quorum in quorums)


def greedy_transversal(
    coterie: Coterie, available: frozenset[int] | None = None
) -> frozenset[int] | None:
    """A small hitting set of ``coterie`` drawn from ``available`` sites.

    Threshold shapes use their closed form (the lowest-numbered
    ``m - k + 1`` eligible members); explicit coteries run the classic
    greedy set-cover heuristic — repeatedly pick the site hitting the
    most still-unhit quorums, lowest site id breaking ties — which is
    within a logarithmic factor of the optimum and, crucially for the
    hand-over, always *correct*: the result intersects every quorum.
    Returns ``None`` when no transversal exists within ``available``
    (including the :class:`EmptyCoterie`, whose empty quorum nothing
    hits).  Deterministic for fixed inputs.
    """
    if available is None:
        available = coterie.universe
    if isinstance(coterie, EmptyCoterie):
        return None
    if isinstance(coterie, SubsetThresholdCoterie):
        if coterie.threshold == 0:
            return None
        pool = sorted(available & coterie.members)
        need = len(coterie.members) - coterie.threshold + 1
        if len(pool) < need:
            return None
        return frozenset(pool[:need])
    remaining = [frozenset(q & available) for q in coterie.quorums()]
    if not remaining:
        return frozenset()  # no quorums: vacuously hit
    if any(not q for q in remaining):
        return None  # some quorum has no available site (or is empty)
    chosen: set[int] = set()
    while remaining:
        counts: dict[int, int] = {}
        for quorum in remaining:
            for site in quorum:
                counts[site] = counts.get(site, 0) + 1
        best = max(sorted(counts), key=lambda site: counts[site])
        chosen.add(best)
        remaining = [q for q in remaining if best not in q]
    return frozenset(chosen)


def _same_coterie(a: Coterie, b: Coterie) -> bool:
    """Structural equality of two coteries (same quorums)."""
    if a is b:
        return True
    if a.n_sites != b.n_sites:
        return False
    empty_a = isinstance(a, EmptyCoterie)
    empty_b = isinstance(b, EmptyCoterie)
    if empty_a or empty_b:
        return empty_a and empty_b
    if isinstance(a, SubsetThresholdCoterie) and isinstance(
        b, SubsetThresholdCoterie
    ):
        return a.members == b.members and a.threshold == b.threshold
    # Explicit coteries (or one beside a threshold): compare the minimal
    # quorum sets directly — admin-path only, never per operation.
    return frozenset(a.quorums()) == frozenset(b.quorums())


def same_assignment(a: QuorumAssignment, b: QuorumAssignment) -> bool:
    """Do two assignments give every event class identical quorums?

    The structural no-op test behind ``reconfigure``: switching to an
    assignment with the same quorums would drain, prime, and bump the
    epoch for nothing, so ``reconfigure`` skips the hand-over entirely
    when this holds.
    """
    if a is b:
        return True
    if a.n_sites != b.n_sites or a.operation_names != b.operation_names:
        return False
    kinds = {
        (op, kind)
        for assignment in (a, b)
        for (op, kind) in assignment._final_by_kind
    }
    for op in a.operation_names:
        if not _same_coterie(a.initial(op), b.initial(op)):
            return False
        if not _same_coterie(a.final(op), b.final(op)):
            return False
    for op, kind in kinds:
        if not _same_coterie(a.final(op, kind), b.final(op, kind)):
            return False
    return True


def visit_order(
    pool: Sequence[int],
    coordinator_site: int,
    n_sites: int,
    coteries: Sequence[Coterie],
) -> list[int]:
    """The order a hand-over (reconfiguration or compaction) probes sites in.

    The base order is the pool rotated from the coordinator (the
    full-universe rotation when the pool is every site).  When any
    coterie is explicit (no threshold closed form), the greedy hitting
    set of its quorums is promoted to the front so the transversal
    completes in as few probes as the heuristic allows; threshold coteries
    need no such help — any ``m - k + 1`` of their members do.
    """
    rotation = sorted(pool, key=lambda site: ((site - coordinator_site) % n_sites, site))
    explicit = [
        c
        for c in coteries
        if not isinstance(c, (SubsetThresholdCoterie, EmptyCoterie))
    ]
    if not explicit:
        return rotation
    priority: list[int] = []
    available = frozenset(pool)
    for coterie in explicit:
        hit = greedy_transversal(coterie, available)
        if hit is None:
            continue  # the drain's round will surface the unavailability
        for site in sorted(hit):
            if site not in priority:
                priority.append(site)
    return priority + [site for site in rotation if site not in priority]


def reconfigure(
    network: Network,
    repositories,
    obj: ReplicatedObject,
    new_assignment: QuorumAssignment,
    coordinator_site: int = 0,
    *,
    placement: "Placement | None" = None,
    frontends: Sequence["FrontEnd"] = (),
    tracer: Tracer | None = None,
) -> bool:
    """Switch ``obj`` to ``new_assignment`` with a safe log hand-over.

    Returns ``True`` when the assignment actually changed and ``False``
    for a structural no-op (``new_assignment`` already describes the
    object's quorums) — a no-op performs no RPCs and does not bump the
    epoch.  Raises :class:`UnavailableError` (leaving the old
    assignment, epoch, and every repository byte-identical) when the
    reachable sites cannot drain the old configuration, and
    :class:`~repro.errors.SpecificationError`, before any RPC, when the
    new assignment leaves a pair of the object's relation without
    intersecting quorums, or when ``placement`` is given and it draws
    quorums from outside the object's replica set.

    With ``placement`` the hand-over probes only the object's replica
    set (genuine partial replication); ``frontends`` forget their
    per-object plan at the switch;
    ``tracer`` receives ``reconfig`` / ``reconfig.drain`` /
    ``reconfig.prime`` spans and the ``reconfig.switch`` point event.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    if new_assignment.n_sites != obj.assignment.n_sites:
        raise QuorumError("reconfiguration cannot change the site universe")
    if same_assignment(obj.assignment, new_assignment):
        return False
    if placement is not None:
        from repro.replication.keyspace import _require_genuine

        _require_genuine(
            obj.name, new_assignment, frozenset(placement.replicas(obj.name))
        )
        pool: Sequence[int] = placement.replicas(obj.name)
    else:
        pool = range(network.n_sites)
    require_satisfies(
        new_assignment, obj.relation, f"object {obj.name!r}: the new assignment would"
    )

    old_finals = [
        coterie
        for coterie in obj.assignment.final_coteries()
        if needs_coverage(coterie)
    ]
    new_initials = [
        coterie
        for coterie in new_assignment.initial_coteries()
        if needs_coverage(coterie)
    ]

    def order(coteries):
        return visit_order(pool, coordinator_site, network.n_sites, coteries)

    with tracer.span(
        "reconfig",
        kind="reconfig",
        object=obj.name,
        from_epoch=obj.epoch,
        to_epoch=obj.epoch + 1,
        site=coordinator_site,
    ) as span:
        # Phase 1: drain — merge logs (and the best compaction snapshot)
        # from reachable sites until they form a transversal of every
        # old final coterie.  Without the snapshot, a primed site that
        # was unreachable during a past compaction could end up holding
        # neither the folded entries nor the state that subsumes them.
        with tracer.span(
            "reconfig.drain", kind="reconfig", object=obj.name, site=coordinator_site
        ) as phase:
            _drained, merged, best_snapshot = drain(
                network, repositories, obj.name, coordinator_site,
                order(old_finals), old_finals, phase, "reconfigure", pool,
            )
            phase.annotate(entries=len(merged))
        # Phase 2: prime — install the complete view (snapshot first, then
        # the residual log) on a transversal of every new initial coterie.
        with tracer.span(
            "reconfig.prime", kind="reconfig", object=obj.name, site=coordinator_site
        ) as phase:
            enough = hits_every(new_initials)
            primed = network.gather(
                coordinator_site,
                order(new_initials),
                lambda site: _prime(
                    repositories[site], obj.name, best_snapshot, merged
                ),
                stop=enough,
            )
            conclude_step(phase, primed, enough, "reconfigure", pool)

        # Phase 3: switch — the epoch transaction commit point.  The
        # assignment swap, epoch bump, and plan invalidations happen
        # between operations (the simulation is single-threaded), so no
        # operation ever sees a half-switched object.
        obj.assignment = new_assignment
        obj.epoch += 1
        for frontend in frontends:
            frontend.forget(obj.name)
        tracer.event("reconfig.switch", object=obj.name, epoch=obj.epoch)
        if tracer.enabled:
            span.annotate(epoch=obj.epoch)
    return True


def hits_every(coteries: Sequence[Coterie]):
    """The stop predicate of a hand-over round: ``reached`` hits every coterie."""
    return lambda reached: all(is_transversal(c, reached) for c in coteries)


def drain(
    network: Network, repositories, name: str, origin: int, order: Sequence[int],
    coteries: Sequence[Coterie], span, op: str, pool: Iterable[int],
) -> tuple[GatherResult, Log, object]:
    """Merge ``name``'s log from sites that hit every one of ``coteries``.

    One quorum round from ``origin`` over ``order``, closed on ``span``
    (``UnavailableError`` for ``op`` when the reachable sites of
    ``pool`` fall short), folded from scratch: returns the round's
    outcome, the merged log and the best compaction snapshot reached.
    Reconfiguration drains the old finals, compaction the current ones.
    """
    enough = hits_every(coteries)
    outcome = network.gather(
        origin, order, lambda site: repositories[site].read_fragment(name), stop=enough
    )
    conclude_step(span, outcome, enough, op, pool)
    merged, best = fold_view(outcome.received)
    return outcome, merged, best


def _prime(repository, object_name: str, snapshot, merged: Log) -> None:
    """Install the hand-over state at one repository."""
    if snapshot is not None:
        repository.install_snapshot(object_name, snapshot)
    repository.write_log(object_name, merged)
