"""The tuner's cost model over legal threshold assignments.

Candidates come from the kernel's own enumeration
(:func:`~repro.quorum.search.valid_threshold_choices` over the object's
dependency relation), so every scored point is *provably legal* for the
object's type — the tuner never invents quorums, it only walks the
``1/n`` ↔ ``n/1`` spectrum Theorems 6 and 10 expose.  Each candidate is
scored under the observed operation mix:

* **messages/op** — an initial quorum of ``k_i`` costs ``k_i`` request/
  reply exchanges and the common-case (``Ok``) final quorum ``k_f``
  more, so a candidate's expected message cost is
  ``Σ_op w(op) · (k_i(op) + k_f(op, Ok))``.  Exceptional response kinds
  (the PROM's ``Read();Disabled()``) are deliberately excluded: they
  price the rare path, and charging it to every operation would erase
  precisely the asymmetry (single-site ``Read();Ok()``) the paper's
  PROM example exists to demonstrate.
* **latency (round trips)** — quorum phases overlap their probes on the
  batched RPC path, so latency counts *phases*, not messages: one round
  trip for the initial quorum plus one more when the common-case final
  is non-empty.  Used to break message-count ties toward fewer phases.
* **availability floor** — a *constraint*, not an objective: per
  operation the joint initial+final availability under independent site
  up-probability ``p`` is one binomial tail at the larger threshold
  (:func:`~repro.quorum.search.needed_thresholds`), and a candidate is
  admissible only when the worst operation clears the floor.

Candidates are materialized over the object's *replica set* as
:class:`~repro.quorum.coterie.SubsetThresholdCoterie` layouts
(:func:`~repro.quorum.search.embed_choice`), then re-checked against
the dependency relation with :func:`~repro.quorum.constraints.satisfies`
— belt and braces: the threshold inequalities already imply
intersection, and the explicit check keeps the guarantee independent of
the enumeration's correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.dependency.relation import DependencyRelation
from repro.quorum import constraints
from repro.quorum.assignment import QuorumAssignment
from repro.quorum.search import (
    ThresholdChoice,
    _availability_vector,
    embed_choice,
    valid_threshold_choices,
)

#: The response kind whose final quorum prices the common case.
COMMON_KIND = "Ok"


@dataclass(frozen=True)
class ScoredCandidate:
    """One legal threshold choice with its scores under a mix."""

    choice: ThresholdChoice
    #: Expected messages per operation under the mix.
    messages: float
    #: Expected quorum round trips per operation under the mix.
    round_trips: float
    #: Worst-case per-operation availability at the model's ``p_up``.
    availability: float

    def sort_key(self) -> tuple:
        """Deterministic preference order: fewer messages, then fewer
        round trips, then higher availability, then a stable textual
        tie-break so equal-cost candidates resolve identically across
        runs and job counts."""
        return (
            self.messages,
            self.round_trips,
            -self.availability,
            self.choice.describe(),
        )


def choice_messages(
    choice: ThresholdChoice, weights: Mapping[str, float]
) -> float:
    """Expected messages/op of a threshold choice under an operation mix."""
    total = 0.0
    for op, weight in weights.items():
        total += weight * (
            choice.initial_of(op) + choice.final_of(op, COMMON_KIND)
        )
    return total


def choice_round_trips(
    choice: ThresholdChoice, weights: Mapping[str, float]
) -> float:
    """Expected quorum phases/op (batched probes overlap within a phase)."""
    total = 0.0
    for op, weight in weights.items():
        phases = (1 if choice.initial_of(op) > 0 else 0) + (
            1 if choice.final_of(op, COMMON_KIND) > 0 else 0
        )
        total += weight * phases
    return total


def choice_availability(choice: ThresholdChoice, p_up: float) -> float:
    """Worst-case per-operation availability of a threshold choice."""
    return min(
        (value for _op, value in _availability_vector(choice, p_up)), default=1.0
    )


def legal_candidates(
    relation: DependencyRelation,
    replicas: Sequence[int],
    n_sites: int,
    operations: Sequence[str],
) -> tuple[tuple[ThresholdChoice, QuorumAssignment], ...]:
    """Every legal threshold layout over the replica set, materialized.

    Enumeration runs over ``len(replicas)`` virtual sites (thresholds
    count replicas); each choice is embedded into the full universe and
    gated through :func:`~repro.quorum.constraints.satisfies`.  The
    result is deterministic and computed once per object — candidate
    spaces depend only on the type's relation and the placement, not on
    the observed mix.
    """
    members = frozenset(replicas)
    out = []
    for choice in valid_threshold_choices(relation, len(members), operations):
        if any(k == 0 for _op, k in choice.initial):
            continue  # an operation that can never execute is not a layout
        assignment = embed_choice(choice, members, n_sites)
        if constraints.satisfies(assignment, relation):
            out.append((choice, assignment))
    return tuple(out)


def score_candidates(
    candidates: Sequence[tuple[ThresholdChoice, QuorumAssignment]],
    weights: Mapping[str, float],
    *,
    p_up: float = 0.9,
    availability_floor: float = 0.0,
) -> list[tuple[ScoredCandidate, QuorumAssignment]]:
    """Score candidates under a mix, dropping floor violations.

    Returns ``(score, assignment)`` pairs sorted best-first by
    :meth:`ScoredCandidate.sort_key`.
    """
    scored = []
    for choice, assignment in candidates:
        availability = choice_availability(choice, p_up)
        if availability < availability_floor:
            continue
        scored.append(
            (
                ScoredCandidate(
                    choice=choice,
                    messages=choice_messages(choice, weights),
                    round_trips=choice_round_trips(choice, weights),
                    availability=availability,
                ),
                assignment,
            )
        )
    scored.sort(key=lambda pair: pair[0].sort_key())
    return scored


def assignment_messages(
    assignment: QuorumAssignment, weights: Mapping[str, float]
) -> float:
    """Expected messages/op of an *installed* assignment under a mix.

    The same model as :func:`choice_messages`, read off the assignment's
    smallest quorum sizes — used to price the incumbent an object is
    currently running so the tuner's hysteresis compares like with like.
    """
    total = 0.0
    for op, weight in weights.items():
        initial = assignment.initial(op).smallest_quorum_size() or 0
        final = assignment.final(op, COMMON_KIND).smallest_quorum_size() or 0
        total += weight * (initial + final)
    return total
