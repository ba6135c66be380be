"""Exact availability computation for coteries and assignments.

Availability is the probability that an operation can execute — i.e.
that at least one initial quorum *and* at least one final quorum are
fully up — under a site-failure model where site ``i`` is up
independently with probability ``p_i`` (the paper's "replicated among n
identical sites" example is the special case of equal probabilities).

Three evaluation strategies, picked automatically:

* threshold coteries: a binomial tail over the members under identical
  probabilities, the Poisson-binomial tail otherwise;
* anything else with ≤ ``_EXACT_LIMIT`` sites: exact summation over the
  ``2^n`` up-sets (n is small in every replication deployment that
  matters here);
* larger universes: a documented error — callers should use the
  simulator's empirical availability instead.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb
from typing import Sequence

from repro.errors import QuorumError
from repro.histories.events import Event, Invocation
from repro.quorum.assignment import QuorumAssignment
from repro.quorum.coterie import Coterie, EmptyCoterie, SubsetThresholdCoterie

#: Exact up-set enumeration is used up to this many sites (2^20 ≈ 1M terms).
_EXACT_LIMIT = 20


def _site_probabilities(
    n_sites: int, p_up: float | Sequence[float]
) -> tuple[float, ...]:
    if isinstance(p_up, (int, float)):
        probs = (float(p_up),) * n_sites
    else:
        probs = tuple(float(p) for p in p_up)
        if len(probs) != n_sites:
            raise QuorumError(
                f"{len(probs)} probabilities given for {n_sites} sites"
            )
    if any(not 0.0 <= p <= 1.0 for p in probs):
        raise QuorumError("site probabilities must lie in [0, 1]")
    return probs


@lru_cache(maxsize=65536)
def binomial_tail(n: int, k: int, p: float) -> float:
    """P[Binomial(n, p) ≥ k].

    Cached: the threshold-frontier search evaluates the same
    ``(n, needed, p)`` triple once per initial-threshold vector, so the
    whole sweep collapses to at most ``n + 1`` distinct tails.
    """
    return sum(comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k, n + 1))


def _count_tail(probs: Sequence[float], k: int) -> float:
    """P[at least k of the sites are up], per-site probabilities ``probs``.

    The Poisson-binomial tail, by dynamic program over the count
    distribution — O(n²) instead of the 2^n up-set enumeration, so
    heterogeneous threshold coteries stay exact at any realistic site
    count.
    """
    distribution = [1.0]  # distribution[j] = P[j sites up] so far
    for p in probs:
        nxt = [0.0] * (len(distribution) + 1)
        for j, mass in enumerate(distribution):
            nxt[j] += mass * (1.0 - p)
            nxt[j + 1] += mass * p
        distribution = nxt
    return sum(distribution[k:])


def _upset_probability(
    n_sites: int,
    probs: Sequence[float],
    predicate,
) -> float:
    """Exact P[predicate(up-set)] by enumeration over all up-sets."""
    if n_sites > _EXACT_LIMIT:
        raise QuorumError(
            f"exact availability limited to {_EXACT_LIMIT} sites; "
            "use the simulator's empirical availability for larger systems"
        )
    total = 0.0
    for bits in product((False, True), repeat=n_sites):
        live = frozenset(i for i, up in enumerate(bits) if up)
        weight = 1.0
        for i, up in enumerate(bits):
            weight *= probs[i] if up else 1.0 - probs[i]
        if weight and predicate(live):
            total += weight
    return total


def _threshold_availability(
    members: frozenset[int], threshold: int, probs: Sequence[float]
) -> float:
    """P[at least ``threshold`` of ``members`` are up]."""
    if threshold == 0:
        return 1.0
    member_probs = [probs[site] for site in sorted(members)]
    if len(set(member_probs)) == 1:
        return binomial_tail(len(member_probs), threshold, member_probs[0])
    return _count_tail(member_probs, threshold)


def coterie_availability(
    coterie: Coterie, p_up: float | Sequence[float]
) -> float:
    """P[some quorum of ``coterie`` is fully up]."""
    probs = _site_probabilities(coterie.n_sites, p_up)
    if isinstance(coterie, EmptyCoterie):
        return 1.0
    if isinstance(coterie, SubsetThresholdCoterie):
        return _threshold_availability(coterie.members, coterie.threshold, probs)
    return _upset_probability(coterie.n_sites, probs, coterie.has_quorum)


def operation_availability(
    assignment: QuorumAssignment,
    operation: str | Invocation,
    p_up: float | Sequence[float],
    kind: str = "Ok",
) -> float:
    """P[the operation can execute]: initial and final quorums both up.

    The same up-set must serve both coteries — the front-end needs its
    view sources and its update sinks in the same partition — so this is
    *not* the product of the two marginal availabilities unless one
    coterie is trivial.  Two threshold coteries over the same members
    need the larger threshold of them up, a single tail.
    """
    name = operation if isinstance(operation, str) else operation.op
    initial = assignment.initial(name)
    final = assignment.final(name, kind)
    probs = _site_probabilities(assignment.n_sites, p_up)
    if isinstance(initial, EmptyCoterie):
        return coterie_availability(final, p_up)
    if isinstance(final, EmptyCoterie):
        return coterie_availability(initial, p_up)
    if (
        isinstance(initial, SubsetThresholdCoterie)
        and isinstance(final, SubsetThresholdCoterie)
        and initial.members == final.members
    ):
        return _threshold_availability(
            initial.members, max(initial.threshold, final.threshold), probs
        )
    return _upset_probability(
        assignment.n_sites,
        probs,
        lambda live: initial.has_quorum(live) and final.has_quorum(live),
    )


def assignment_availability(
    assignment: QuorumAssignment,
    p_up: float | Sequence[float],
    weights: dict[str, float] | None = None,
) -> float:
    """Workload-weighted mean operation availability.

    ``weights`` maps operation names to their frequency in the workload
    (normalized internally); the default weights every operation
    equally.
    """
    names = assignment.operation_names
    if weights is None:
        weights = {name: 1.0 for name in names}
    total_weight = sum(weights.get(name, 0.0) for name in names)
    if total_weight <= 0:
        raise QuorumError("workload weights must have positive total")
    return sum(
        weights.get(name, 0.0) * operation_availability(assignment, name, p_up)
        for name in names
    ) / total_weight
