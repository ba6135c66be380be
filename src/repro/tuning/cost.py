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
(:func:`embed_choice`), then re-checked against the dependency relation
with :func:`~repro.quorum.constraints.satisfies` — belt and braces: the
threshold inequalities already imply intersection, and the explicit
check keeps the guarantee independent of the enumeration's correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.dependency.relation import DependencyRelation
from repro.quorum import constraints
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.availability import binomial_tail
from repro.quorum.coterie import (
    Coterie,
    EmptyCoterie,
    SubsetThresholdCoterie,
    ThresholdCoterie,
)
from repro.quorum.search import (
    ThresholdChoice,
    needed_thresholds,
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
    worst = 1.0
    for _op, needed in needed_thresholds(choice):
        avail = 1.0 if needed == 0 else binomial_tail(choice.n_sites, needed, p_up)
        worst = min(worst, avail)
    return worst


def _embed_coterie(
    threshold: int, replicas: frozenset[int], n_sites: int
) -> Coterie:
    if threshold == 0:
        return EmptyCoterie(n_sites)
    if len(replicas) == n_sites:
        # Full replication: a plain threshold coterie is the same quorum
        # family with cheaper membership checks — and byte-identical
        # ``describe()`` output to the pre-keyspace layouts.
        return ThresholdCoterie(n_sites, threshold)
    return SubsetThresholdCoterie(n_sites, replicas, threshold)


def embed_choice(
    choice: ThresholdChoice, replicas: Sequence[int], n_sites: int
) -> QuorumAssignment:
    """Materialize a choice over a replica subset of the site universe.

    ``choice.n_sites`` must equal ``len(replicas)`` — its thresholds are
    counts *of replicas* — while the returned assignment lives in the
    full ``n_sites`` universe, with every coterie a
    :class:`SubsetThresholdCoterie` over the replica set (mirroring how
    :meth:`~repro.replication.keyspace.ObjectSpec.compile_assignment`
    compiles placements).
    """
    members = frozenset(replicas)
    if choice.n_sites != len(members):
        raise ValueError(
            f"choice is over {choice.n_sites} replicas, got {len(members)}"
        )
    finals = dict(choice.final)
    operations = {}
    overrides = {}
    for op, k_init in choice.initial:
        kinds = {kind: k for (name, kind), k in finals.items() if name == op}
        default = max(kinds.values(), default=0)
        operations[op] = OperationQuorums(
            initial=_embed_coterie(k_init, members, n_sites),
            final=_embed_coterie(default, members, n_sites),
        )
        for kind, k in kinds.items():
            if k != default:
                overrides[(op, kind)] = _embed_coterie(k, members, n_sites)
    return QuorumAssignment(n_sites, operations, overrides)


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
