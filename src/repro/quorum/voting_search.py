"""Searching weighted-voting assignments for heterogeneous sites.

Threshold quorums treat sites as identical, but real deployments are
not: when one site is markedly more reliable, Gifford's weighted voting
[11] lets it carry more votes, so small quorums can prefer it without
giving up intersection guarantees.  This module searches the joint
space of

* a vote vector (one weight per site, from a small domain), and
* per-operation initial and per-event-class final vote thresholds,

for the assignment maximizing workload-weighted availability under a
dependency relation, with *exact* intersection checking (vote-threshold
sums are only sufficient, not necessary, for lumpy weights — the
coterie-level check is authoritative).

The search space is exponential in sites and operations, so this is a
small-n tool (the ``Weighted voting`` claim row uses n = 3); it exists to demonstrate and
test the phenomenon, not to scale.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from repro.dependency.relation import DependencyRelation
from repro.errors import QuorumError
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.availability import operation_availability
from repro.quorum.coterie import Coterie, EmptyCoterie
from repro.quorum.search import EventClass, schema_constraints
from repro.quorum.voting import weighted_voting_coterie


def _minimal_final_threshold(
    weights: Sequence[int],
    initial: Coterie,
    max_votes: int,
) -> int | None:
    """The smallest final vote threshold intersecting ``initial``."""
    for threshold in range(1, max_votes + 1):
        final = weighted_voting_coterie(weights, threshold)
        if initial.intersects(final):
            return threshold
    return None


def best_voting_assignment(
    relation: DependencyRelation,
    p_up: Sequence[float],
    operations: Sequence[str],
    workload: dict[str, float] | None = None,
    vote_domain: Sequence[int] = (1, 2),
) -> tuple[tuple[int, ...], QuorumAssignment, float]:
    """The weighted-voting assignment maximizing weighted availability.

    ``p_up`` gives each site's up-probability (its length fixes the site
    count).  Returns ``(weights, assignment, score)``.
    """
    n_sites = len(p_up)
    workload = workload or {op: 1.0 for op in operations}
    total_weight = sum(workload.values())
    constraints = schema_constraints(relation)
    classes: set[EventClass] = {cls for _inv, cls in constraints}
    classes.update((op, "Ok") for op in operations)
    dependents: dict[EventClass, list[str]] = {cls: [] for cls in classes}
    for inv_op, cls in constraints:
        dependents[cls].append(inv_op)

    best: tuple[tuple[int, ...], QuorumAssignment, float] | None = None
    for weights in product(vote_domain, repeat=n_sites):
        max_votes = sum(weights)
        if max_votes == 0:
            continue
        for init_vector in product(range(max_votes + 1), repeat=len(operations)):
            initial_coteries = {
                op: weighted_voting_coterie(weights, votes)
                for op, votes in zip(operations, init_vector)
            }
            finals: dict[EventClass, Coterie] = {}
            feasible = True
            for cls, needing in dependents.items():
                if not needing:
                    finals[cls] = EmptyCoterie(n_sites)
                    continue
                needed_threshold = 0
                for op in needing:
                    minimal = _minimal_final_threshold(
                        weights, initial_coteries[op], max_votes
                    )
                    if minimal is None:
                        feasible = False
                        break
                    needed_threshold = max(needed_threshold, minimal)
                if not feasible:
                    break
                finals[cls] = weighted_voting_coterie(weights, needed_threshold)
            if not feasible:
                continue
            assignment = _build_assignment(
                n_sites, operations, initial_coteries, finals
            )
            score = sum(
                workload.get(op, 0.0)
                * operation_availability(assignment, op, list(p_up))
                for op in operations
            ) / total_weight
            if best is None or score > best[2]:
                best = (weights, assignment, score)
    if best is None:
        raise QuorumError("no valid weighted-voting assignment exists")
    return best


def _build_assignment(
    n_sites: int,
    operations: Sequence[str],
    initials: dict[str, Coterie],
    finals: dict[EventClass, Coterie],
) -> QuorumAssignment:
    op_quorums = {}
    overrides = {}
    for op in operations:
        kinds = {
            kind: coterie for (name, kind), coterie in finals.items() if name == op
        }
        default = kinds.get("Ok", EmptyCoterie(n_sites))
        op_quorums[op] = OperationQuorums(initial=initials[op], final=default)
        for kind, coterie in kinds.items():
            if kind != "Ok":
                overrides[(op, kind)] = coterie
    return QuorumAssignment(n_sites, op_quorums, overrides)
