"""Validity of quorum assignments against dependency relations.

A replicated object satisfies its behavioral specification if and only
if its *quorum intersection relation* is an atomic dependency relation
for the specification (paper, Section 3.2).  The intersection relation
of an assignment relates ``inv ≥ e`` exactly when every initial quorum
for ``inv`` intersects every final quorum for ``e``; an assignment is
valid for a dependency relation when its intersection relation contains
that relation (more intersections than required are harmless — any
superset of an atomic dependency relation is one).
"""

from __future__ import annotations

from typing import Sequence

from repro.dependency.relation import DependencyRelation, GroundPair
from repro.errors import SpecificationError
from repro.histories.events import Event, Invocation
from repro.quorum.assignment import QuorumAssignment


def intersection_relation(
    assignment: QuorumAssignment,
    invocations: Sequence[Invocation],
    events: Sequence[Event],
) -> DependencyRelation:
    """The ground intersection relation of ``assignment`` over an alphabet.

    Intersection is a property of operation names and response kinds,
    so it is computed per class and expanded over the ground alphabet.
    """
    by_class: dict[tuple[str, str, str], bool] = {}
    pairs: set[GroundPair] = set()
    for invocation in invocations:
        for event in events:
            key = (invocation.op, event.inv.op, event.res.kind)
            if key not in by_class:
                by_class[key] = assignment.initial(invocation).intersects(
                    assignment.final(event)
                )
            if by_class[key]:
                pairs.add((invocation, event))
    return DependencyRelation(pairs)


def violated_pairs(
    assignment: QuorumAssignment,
    relation: DependencyRelation,
) -> tuple[GroundPair, ...]:
    """Pairs of ``relation`` whose quorums fail to intersect."""
    failures = []
    cache: dict[tuple[str, str, str], bool] = {}
    for invocation, event in relation:
        key = (invocation.op, event.inv.op, event.res.kind)
        if key not in cache:
            cache[key] = assignment.initial(invocation).intersects(
                assignment.final(event)
            )
        if not cache[key]:
            failures.append((invocation, event))
    return tuple(failures)


def pair_class(invocation: Invocation, event: Event) -> str:
    """A ground pair's ``(invocation op, event op, kind)`` class, as
    ``Enq ≥ Deq;Ok`` — the grain at which quorums intersect."""
    return f"{invocation.op} ≥ {event.inv.op};{event.res.kind}"


def require_satisfies(
    assignment: QuorumAssignment, relation: DependencyRelation, subject: str
) -> None:
    """Refuse ``assignment`` unless it satisfies ``relation``.

    The one validity check every layout an object runs passes through:
    the raised :class:`~repro.errors.SpecificationError` starts with
    ``subject`` and names each failing ``(invocation op, event op,
    kind)`` class once, in sorted order, as ``Enq ≥ Deq;Ok``.
    """
    broken = violated_pairs(assignment, relation)
    if broken:
        labels = sorted({pair_class(inv, event) for inv, event in broken})
        raise SpecificationError(
            f"{subject} leave {', '.join(labels)} without intersecting "
            "initial and final quorums"
        )


def satisfies(assignment: QuorumAssignment, relation: DependencyRelation) -> bool:
    """Does the assignment's intersection relation contain ``relation``?

    When it does — and ``relation`` is an atomic dependency relation for
    the object's behavioral specification — the replicated object is
    correct (paper, Section 3.2).
    """
    return not violated_pairs(assignment, relation)
