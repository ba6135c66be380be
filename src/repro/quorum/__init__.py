"""Quorums, quorum assignments, and availability.

A *quorum* for an operation is any set of repository sites whose
cooperation suffices to execute the operation; a *quorum assignment*
associates initial quorums with each invocation and final quorums with
each event (paper, Sections 1 and 3.2).  Constraints on quorum
assignment take the form "each initial quorum for this invocation must
intersect each final quorum for that event", and a replicated object is
correct exactly when its quorum intersection relation is an atomic
dependency relation for its behavioral specification.

This subpackage provides coteries (:mod:`repro.quorum.coterie`),
Gifford-style weighted voting constructors (:mod:`repro.quorum.voting`),
assignments and their intersection relations
(:mod:`repro.quorum.assignment`, :mod:`repro.quorum.constraints`), exact
availability computation (:mod:`repro.quorum.availability`), and a
search for availability-optimal assignments under a dependency relation,
with the cheapest layout for an operation mix (:mod:`repro.quorum.search`).
"""

from repro.quorum.coterie import (
    Coterie,
    EmptyCoterie,
    ExplicitCoterie,
    ThresholdCoterie,
    majority,
)
from repro.quorum.voting import weighted_voting_coterie
from repro.quorum.voting_search import best_voting_assignment
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.constraints import (
    intersection_relation,
    require_satisfies,
    satisfies,
    violated_pairs,
)
from repro.quorum.availability import (
    assignment_availability,
    binomial_tail,
    coterie_availability,
    operation_availability,
)
from repro.quorum.search import (
    ThresholdChoice,
    best_threshold_assignment,
    cheapest_assignment,
    threshold_frontier,
)

__all__ = [
    "Coterie",
    "ExplicitCoterie",
    "ThresholdCoterie",
    "EmptyCoterie",
    "majority",
    "weighted_voting_coterie",
    "best_voting_assignment",
    "OperationQuorums",
    "QuorumAssignment",
    "intersection_relation",
    "require_satisfies",
    "satisfies",
    "violated_pairs",
    "binomial_tail",
    "coterie_availability",
    "operation_availability",
    "assignment_availability",
    "ThresholdChoice",
    "best_threshold_assignment",
    "cheapest_assignment",
    "threshold_frontier",
]
