"""Searching for availability-optimal threshold quorum assignments.

Given a dependency relation for a type (static, hybrid, or dynamic —
whichever local atomicity property the system enforces), the space of
valid *threshold* assignments is characterized by simple inequalities:
for every required pair ``inv ≥ e``,

    k_initial(inv.op) ≥ 1,  k_final(e) ≥ 1,  and
    k_initial(inv.op) + k_final(e) > n.

Availability is monotonically decreasing in every threshold, so for a
fixed vector of initial thresholds the best valid final thresholds are
the minimal ones the inequalities allow.  The search therefore
enumerates initial-threshold vectors only (``(n+1)^|ops|`` points),
derives minimal finals, and collects the Pareto frontier over per-
operation availability.  This is exactly the computation behind the
paper's PROM example: under hybrid atomicity the frontier contains
Read/Seal/Write quorums of sizes ``1/n/1``, while under static atomicity
every point with single-site Reads forces ``n``-site Writes.  For an
operation mix, :func:`cheapest_assignment` is the one quorum chooser:
the valid layout over a replica set with the fewest expected messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterable, Mapping, Sequence

from repro.dependency.relation import DependencyRelation
from repro.errors import QuorumError
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.availability import binomial_tail
from repro.quorum.coterie import Coterie, EmptyCoterie, SubsetThresholdCoterie

#: An event class is an ``(operation, response kind)`` pair.
EventClass = tuple[str, str]


@dataclass(frozen=True)
class ThresholdChoice:
    """A threshold quorum assignment: one initial size per operation and
    one final size per event class (0 = no final quorum needed)."""

    n_sites: int
    initial: tuple[tuple[str, int], ...]
    final: tuple[tuple[EventClass, int], ...]

    @cached_property
    def _initial_map(self) -> dict[str, int]:
        # cached_property writes instance __dict__ directly, which the
        # frozen dataclass permits (no __slots__); lookups after the
        # first are plain dict hits instead of per-call dict() rebuilds.
        return dict(self.initial)

    @cached_property
    def _final_map(self) -> dict[EventClass, int]:
        return dict(self.final)

    def initial_of(self, op: str) -> int:
        return self._initial_map[op]

    def final_of(self, op: str, kind: str = "Ok") -> int:
        return self._final_map.get((op, kind), 0)

    def to_assignment(self) -> QuorumAssignment:
        """Materialize as a :class:`QuorumAssignment` over every site."""
        return embed_choice(self, range(self.n_sites), self.n_sites)

    def describe(self) -> str:
        parts = [
            f"{op}: init {k_init}"
            + "".join(
                f", final[{kind}] {k}"
                for (name, kind), k in self.final
                if name == op
            )
            for op, k_init in self.initial
        ]
        return "; ".join(parts)


def embed_choice(
    choice: ThresholdChoice, replicas: Iterable[int], n_sites: int
) -> QuorumAssignment:
    """Materialize a choice over a replica subset of the site universe.

    ``choice.n_sites`` must equal ``len(replicas)`` — its thresholds are
    counts *of replicas* — while the returned assignment lives in the
    full ``n_sites`` universe.  Every coterie is a
    :class:`SubsetThresholdCoterie` on the replica set, as
    :meth:`~repro.replication.keyspace.ObjectSpec.compile_assignment`
    compiles placements.  Each operation's final coterie is its largest
    per-kind final; kinds needing less become overrides.
    """
    members = frozenset(replicas)
    if choice.n_sites != len(members):
        raise ValueError(
            f"choice is over {choice.n_sites} replicas, got {len(members)}"
        )

    def coterie(threshold: int) -> Coterie:
        if threshold == 0:
            return EmptyCoterie(n_sites)
        return SubsetThresholdCoterie(n_sites, members, threshold)

    operations = {}
    overrides = {}
    for op, k_init in choice.initial:
        kinds = {kind: k for (name, kind), k in choice.final if name == op}
        default = max(kinds.values(), default=0)
        operations[op] = OperationQuorums(
            initial=coterie(k_init), final=coterie(default)
        )
        for kind, k in kinds.items():
            if k != default:
                overrides[(op, kind)] = coterie(k)
    return QuorumAssignment(n_sites, operations, overrides)


def schema_constraints(
    relation: DependencyRelation,
) -> frozenset[tuple[str, EventClass]]:
    """Project a ground relation to (invocation op, event class) constraints.

    Threshold quorums cannot distinguish argument values, so grounding is
    conservatively collapsed: any ground pair forces the intersection for
    its whole class.
    """
    return frozenset(
        (inv.op, (event.inv.op, event.res.kind)) for inv, event in relation.pairs
    )


def _event_class_universe(
    relation: DependencyRelation,
    operations: Sequence[str],
    extra_classes: Iterable[EventClass] = (),
) -> tuple[EventClass, ...]:
    classes = {cls for _inv, cls in schema_constraints(relation)}
    classes.update(extra_classes)
    classes.update((op, "Ok") for op in operations)
    return tuple(sorted(classes))


def valid_threshold_choices(
    relation: DependencyRelation,
    n_sites: int,
    operations: Sequence[str],
    extra_classes: Iterable[EventClass] = (),
) -> Iterable[ThresholdChoice]:
    """Yield, for every initial-threshold vector, the minimal valid finals.

    Every valid threshold assignment is dominated (pointwise, hence in
    availability) by one of the yielded choices.
    """
    constraints = schema_constraints(relation)
    classes = _event_class_universe(relation, operations, extra_classes)
    needed_by_class: dict[EventClass, list[str]] = {cls: [] for cls in classes}
    for inv_op, cls in constraints:
        if inv_op not in operations:
            raise QuorumError(f"relation mentions unassigned operation {inv_op!r}")
        if cls not in needed_by_class:
            raise QuorumError(f"relation mentions unknown event class {cls!r}")
        needed_by_class[cls].append(inv_op)

    ops = tuple(operations)
    for vector in product(range(n_sites + 1), repeat=len(ops)):
        initial = dict(zip(ops, vector))
        final: dict[EventClass, int] = {}
        feasible = True
        for cls, dependents in needed_by_class.items():
            if not dependents:
                final[cls] = 0
                continue
            if any(initial[op] == 0 for op in dependents):
                feasible = False  # a dependent op can never see this class
                break
            required = max(n_sites + 1 - initial[op] for op in dependents)
            final[cls] = max(1, required)
            if final[cls] > n_sites:
                feasible = False
                break
        if not feasible:
            continue
        yield ThresholdChoice(
            n_sites=n_sites,
            initial=tuple(sorted(initial.items())),
            final=tuple(sorted(final.items())),
        )


#: The response kind whose final quorum prices the common case.
COMMON_KIND = "Ok"


def cheapest_assignment(
    relation: DependencyRelation,
    operations: Sequence[str],
    weights: Mapping[str, float],
    replicas: Iterable[int],
    n_sites: int,
    *,
    p_up: float = 0.9,
    availability_floor: float = 0.0,
) -> tuple[ThresholdChoice, QuorumAssignment, float] | None:
    """The cheapest valid threshold layout over a replica set, under a mix.

    Walks :func:`valid_threshold_choices` over ``len(replicas)`` virtual
    sites (thresholds count replicas), skipping layouts with a zero
    initial quorum (an operation that can never execute) and layouts
    whose worst operation's availability at ``p_up`` falls below
    ``availability_floor``.  The rest rank by expected messages per
    operation (an initial quorum of ``k_i`` costs ``k_i`` exchanges and
    the common-case ``Ok`` final ``k_f`` more; exceptional kinds such as
    PROM's ``Read();Disabled()`` price the rare path and are left out),
    then quorum round trips (batched probes overlap within a phase),
    then higher availability, then :meth:`ThresholdChoice.describe`, so
    equal-cost layouts resolve identically in every run.

    Only the winner is embedded over ``replicas``
    (:func:`embed_choice`).  Returns ``(choice, assignment, messages)``,
    or ``None`` when no layout clears the floor.
    """
    members = frozenset(replicas)
    best: tuple[tuple[float, float, float, str], ThresholdChoice] | None = None
    for choice, availability, text in _layouts(
        relation, tuple(operations), len(members), p_up
    ):
        if availability < availability_floor:
            continue
        messages = round_trips = 0.0
        for op, weight in weights.items():
            initial, final = choice.initial_of(op), choice.final_of(op, COMMON_KIND)
            messages += weight * (initial + final)
            round_trips += weight * ((initial > 0) + (final > 0))
        key = (messages, round_trips, -availability, text)
        if best is None or key < best[0]:
            best = (key, choice)
    if best is None:
        return None
    (messages, *_rest), choice = best
    return choice, embed_choice(choice, members, n_sites), messages


@lru_cache(maxsize=256)
def _layouts(
    relation: DependencyRelation, operations: tuple[str, ...], n: int, p_up: float
) -> tuple[tuple[ThresholdChoice, float, str], ...]:
    """:func:`cheapest_assignment`'s candidates, enumerated once per
    relation and replica count: each valid layout with no zero initial,
    its worst operation's availability, and its text."""
    layouts = []
    for choice in valid_threshold_choices(relation, n, operations):
        if any(k == 0 for _op, k in choice.initial):
            continue
        availability = min(
            (value for _op, value in _availability_vector(choice, p_up)),
            default=1.0,
        )
        layouts.append((choice, availability, choice.describe()))
    return tuple(layouts)


def _availability_vector(
    choice: ThresholdChoice, p_up: float
) -> tuple[tuple[str, float], ...]:
    """Per-operation worst-case availability of a threshold choice.

    For threshold coteries under identical site probabilities the joint
    initial+final availability is a single binomial tail at the larger
    threshold (the same up-set serves both), so the whole vector reduces
    to cached :func:`~repro.quorum.availability.binomial_tail` lookups —
    no :class:`QuorumAssignment` is materialized.  Equality with the
    ``to_assignment`` + ``operation_availability`` path is test-enforced.
    """
    return tuple(
        (op, 1.0 if needed == 0 else binomial_tail(choice.n_sites, needed, p_up))
        for op, needed in needed_thresholds(choice)
    )


def needed_thresholds(choice: ThresholdChoice) -> tuple[tuple[str, int], ...]:
    """Per-operation effective threshold: max of initial and all finals.

    Under identical site probabilities the joint initial+final
    availability of a threshold choice is a single binomial tail at this
    threshold (the same up-set serves both coteries), so a choice's
    whole availability vector is determined by these integers.
    """
    result = []
    for op, k_init in choice.initial:
        finals = [k for (name, _kind), k in choice.final if name == op]
        result.append((op, max([k_init] + finals)))
    return tuple(result)


def pareto_frontier(
    scored: Sequence[tuple[ThresholdChoice, tuple[tuple[str, float], ...]]],
) -> list[tuple[ThresholdChoice, tuple[tuple[str, float], ...]]]:
    """Filter ``(choice, availability vector)`` pairs to the Pareto set."""
    frontier: list[tuple[ThresholdChoice, tuple[tuple[str, float], ...]]] = []
    for choice, vector in scored:
        values = [v for _op, v in vector]
        dominated = False
        for _other, other_vector in scored:
            other_values = [v for _op, v in other_vector]
            if all(o >= v for o, v in zip(other_values, values)) and any(
                o > v for o, v in zip(other_values, values)
            ):
                dominated = True
                break
        if not dominated:
            frontier.append((choice, vector))
    # Deduplicate identical availability vectors, keeping the lexicographically
    # smallest choice for determinism.
    unique: dict[tuple, tuple[ThresholdChoice, tuple]] = {}
    for choice, vector in frontier:
        key = tuple(vector)
        if key not in unique or str(choice) < str(unique[key][0]):
            unique[key] = (choice, vector)
    return sorted(unique.values(), key=lambda item: str(item[0]))


def threshold_frontier(
    relation: DependencyRelation,
    n_sites: int,
    operations: Sequence[str],
    p_up: float = 0.9,
    extra_classes: Iterable[EventClass] = (),
) -> list[tuple[ThresholdChoice, tuple[tuple[str, float], ...]]]:
    """The Pareto frontier of valid threshold assignments.

    Returns ``(choice, availability vector)`` pairs such that no other
    valid choice is at least as available for every operation and
    strictly more available for one.  Each operation's availability is
    its worst case over event classes (the conservative figure a client
    cares about).
    """
    scored = [
        (choice, _availability_vector(choice, p_up))
        for choice in valid_threshold_choices(
            relation, n_sites, operations, extra_classes
        )
    ]
    return pareto_frontier(scored)


def best_threshold_assignment(
    relation: DependencyRelation,
    n_sites: int,
    operations: Sequence[str],
    p_up: float = 0.9,
    weights: dict[str, float] | None = None,
    extra_classes: Iterable[EventClass] = (),
) -> tuple[ThresholdChoice, float]:
    """The valid threshold choice maximizing workload-weighted availability.

    ``weights`` is normalized over ``operations`` alone, the same rule
    :func:`~repro.quorum.availability.assignment_availability` applies:
    weights of unscored operations are ignored, and a non-positive total
    is an error.
    """
    weights = weights or {op: 1.0 for op in operations}
    total = sum(weights.get(op, 0.0) for op in operations)
    if total <= 0:
        raise QuorumError("workload weights must have positive total")
    best: tuple[ThresholdChoice, float] | None = None
    for choice in valid_threshold_choices(relation, n_sites, operations, extra_classes):
        vector = dict(_availability_vector(choice, p_up))
        score = sum(weights.get(op, 0.0) * vector[op] for op in operations) / total
        if best is None or score > best[1]:
            best = (choice, score)
    if best is None:
        raise QuorumError("no valid threshold assignment exists")
    return best
