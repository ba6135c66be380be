"""Bounded verification of atomic dependency relations (Definition 2).

A relation ``≥`` is an *atomic dependency relation* for a behavioral
specification when, for every legal history ``H``, every closed
subhistory ``G`` containing the events ``H`` relates to an invocation
``inv``, and every response ``res``: if ``G·[inv;res A]`` is legal then
``H·[inv;res A]`` is legal.  Operationally: a front-end that assembles a
*view* (a closed subhistory guaranteed to contain everything ``inv``
depends on, by quorum intersection) and finds a response legal for the
view may safely return it.

:func:`find_counterexample` refutes candidate relations by exhaustive
search up to bounds; :func:`is_dependency_relation` is its boolean form.
The search is *sound* (any counterexample it returns is genuine) and
*complete up to the bounds*: every counterexample in the paper fits well
inside the default bounds, and benches report the bounds used.

Because every superset of an atomic dependency relation is itself an
atomic dependency relation (more required intersections mean richer
views), the total relation is always valid, and the set of pairs present
in *every* valid relation — :func:`required_pairs` — can be computed by
deleting one pair at a time from the total relation.  For static and
dynamic atomicity that set *is* the unique minimal relation (Theorems 6
and 10); for hybrid atomicity it may be strictly smaller than every
valid relation, which is exactly the paper's FlagSet phenomenon.

To make repeated verification cheap (minimality checks run one search
per pair), a :class:`VerificationArena` enumerates the bounded history
universe and classifies the candidate appended events at most once, *on
demand*: a search that meets its counterexample early pays only for the
universe up to that witness, the first search that runs to the end
completes the arena, and every later check replays it.  Whether a closed
subhistory admits an append does not depend on the relation that made it
closed, so that answer is kept beside the arena entry too: a search
enumerates closed kept sets as bitmasks (``closure.OpMasks``) and asks
the property only about views no earlier search over the arena met.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.atomicity.explore import ExplorationBounds, behavioral_histories
from repro.atomicity.properties import LocalAtomicityProperty
from repro.dependency.closure import OpMasks, project
from repro.dependency.relation import DependencyRelation, GroundPair
from repro.histories.behavioral import BehavioralHistory, Op
from repro.histories.events import Event, Invocation


@dataclass(frozen=True)
class VerificationBounds:
    """Bounds for Definition 2 verification.

    ``exploration`` bounds the history universe; ``append_events``
    optionally restricts the events considered for the appended
    operation (default: the exploration alphabet).
    """

    exploration: ExplorationBounds = field(default_factory=ExplorationBounds)
    append_events: tuple[Event, ...] | None = None


@dataclass
class Counterexample:
    """A witness that a relation is not an atomic dependency relation.

    ``history`` is legal, ``subhistory`` is a closed subhistory
    containing everything ``appended.event.inv`` depends on, the
    subhistory extended by ``appended`` is legal — yet the history
    extended by ``appended`` is not.
    """

    history: BehavioralHistory
    subhistory: BehavioralHistory
    kept_ops: frozenset[int]
    appended: Op

    def explain(self) -> str:
        return (
            "counterexample to Definition 2:\n"
            f"H =\n{_indent(str(self.history))}\n"
            f"G (closed subhistory) =\n{_indent(str(self.subhistory))}\n"
            f"G·[{self.appended}] is in the specification "
            f"but H·[{self.appended}] is not"
        )


def _indent(text: str) -> str:
    return "\n".join("    " + line for line in text.splitlines())


class _Replayed:
    """A re-iterable view of an iterator that draws each item once.

    Items already drawn are kept and replayed to later iterations; an
    iteration that runs past them draws the next one from the source.
    """

    def __init__(self, source: Iterator):
        self._source = source
        self._drawn: list = []

    def __iter__(self) -> Iterator:
        drawn = self._drawn
        index = 0
        while True:
            if index == len(drawn):
                try:
                    drawn.append(next(self._source))
                except StopIteration:
                    return
            yield drawn[index]
            index += 1

    def __bool__(self) -> bool:
        return any(True for _ in self)


class VerificationArena:
    """The shared universe for Definition 2 checks, built on demand.

    Holds every bounded history ``H`` admitted by the property that has
    a candidate appended operation ``[e A]`` with ``H·[e A]`` *not*
    admitted, together with those rejected appends (admitted appends
    satisfy Definition 2 vacuously).  ``entries`` is produced in
    enumeration order as far as some search has iterated, never twice:
    constructing an arena enumerates nothing.  ``view_admitted`` holds,
    per entry, rejected append and kept set, whether the property admits
    that append after that closed subhistory — decided by the first
    search that asks, under whatever relation, and replayed to the rest.
    """

    def __init__(self, prop: LocalAtomicityProperty, bounds: VerificationBounds):
        self.property = prop
        self.bounds = bounds
        events = bounds.append_events
        if events is None:
            events = bounds.exploration.resolve_events(prop)
        self.append_events: tuple[Event, ...] = tuple(events)
        self.invocations: tuple[Invocation, ...] = tuple(
            sorted({ev.inv for ev in self.append_events}, key=str)
        )
        #: (history, rejected appends) pairs; each append is an Op entry
        #: such that history.append(op) is well-formed but not admitted.
        self.entries = _Replayed(self._build())
        #: (position in ``entries``, position among its rejected appends,
        #: kept mask ``K``) → is ``project(history, K)·op`` admitted?
        self.view_admitted: dict[tuple[int, int, int], bool] = {}

    def _build(self) -> Iterator[tuple[BehavioralHistory, tuple[Op, ...]]]:
        prop = self.property
        for history in behavioral_histories(prop, self.bounds.exploration):
            rejected: list[Op] = []
            for action in sorted(history.active):
                for event in self.append_events:
                    op = Op(event, action)
                    if not prop.admits(history.append(op)):
                        rejected.append(op)
            if rejected:
                yield history, tuple(rejected)

    def universe_pairs(self) -> DependencyRelation:
        """The total relation over this arena's alphabet."""
        return DependencyRelation.total(self.invocations, self.append_events)


def find_counterexample(
    relation: DependencyRelation,
    arena: VerificationArena,
) -> Counterexample | None:
    """Search the arena for a Definition 2 violation of ``relation``.

    Returns the first counterexample found — entries in arena order,
    their rejected appends in order, kept masks ascending — or ``None``
    when the relation holds throughout the bounded universe.
    """
    prop = arena.property
    view_admitted = arena.view_admitted
    for slot, (history, rejected) in enumerate(arena.entries):
        masks = OpMasks(history, relation)
        for which, op in enumerate(rejected):
            required = masks.depended_on(op.event.inv)
            for kept in masks.closed(required, proper_only=True):
                admitted = view_admitted.get((slot, which, kept))
                if admitted is None:
                    view = project(history, masks.indices_of(kept))
                    admitted = prop.admits(view.append(op))
                    view_admitted[slot, which, kept] = admitted
                if admitted:
                    kept_ops = masks.indices_of(kept)
                    return Counterexample(
                        history, project(history, kept_ops), kept_ops, op
                    )
    return None


def is_dependency_relation(
    relation: DependencyRelation,
    arena: VerificationArena,
) -> bool:
    """Does ``relation`` satisfy Definition 2 throughout the arena?"""
    return find_counterexample(relation, arena) is None


def required_pairs(
    arena: VerificationArena,
    universe: DependencyRelation | None = None,
) -> DependencyRelation:
    """Pairs contained in *every* atomic dependency relation (within bounds).

    A pair is required when deleting it from the total relation breaks
    Definition 2.  For static and dynamic atomicity this equals the
    unique minimal relation; for hybrid atomicity it is the intersection
    of all minimal relations (Theorem 4's corollary: the minimal static
    relation encompasses the union of the minimal hybrid relations, and
    the FlagSet shows the intersection can be a strict subset of every
    valid relation).
    """
    total = universe if universe is not None else arena.universe_pairs()
    needed: set[GroundPair] = set()
    for pair in total.pairs:
        if find_counterexample(total.without(pair), arena) is not None:
            needed.add(pair)
    return DependencyRelation(needed)


def is_minimal_relation(
    relation: DependencyRelation,
    arena: VerificationArena,
) -> bool:
    """Is ``relation`` valid with every single-pair deletion invalid?"""
    if not is_dependency_relation(relation, arena):
        return False
    return all(
        find_counterexample(relation.without(pair), arena) is not None
        for pair in relation.pairs
    )


def minimal_extensions(
    core: DependencyRelation,
    candidates: Iterable[GroundPair],
    arena: VerificationArena,
    *,
    max_added: int = 2,
) -> Iterator[DependencyRelation]:
    """Yield valid relations ``core ∪ A`` with every added pair essential.

    Used to reproduce the FlagSet result: the required core extends to a
    valid relation via *either* of two single pairs, neither contained in
    the other's extension.  An extension qualifies when it satisfies
    Definition 2 and removing any one *added* pair breaks it again —
    i.e. the addition set is minimal (the core itself is taken as given;
    certifying global minimality of every core pair can need witnesses
    beyond any fixed bound).
    """
    from itertools import combinations

    candidates = [pair for pair in candidates if pair not in core.pairs]
    for size in range(max_added + 1):
        for added in combinations(candidates, size):
            extended = core
            for pair in added:
                extended = extended.with_pair(pair)
            if not is_dependency_relation(extended, arena):
                continue
            if all(
                find_counterexample(extended.without(pair), arena) is not None
                for pair in added
            ):
                yield extended
