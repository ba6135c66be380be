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
in *every* valid relation — :func:`required_pairs` — is the set of pairs
whose deletion from the total relation breaks it.  For static and
dynamic atomicity that set *is* the unique minimal relation (Theorems 6
and 10); for hybrid atomicity it may be strictly smaller than every
valid relation, which is exactly the paper's FlagSet phenomenon.

Every "delete one pair from a valid relation" question —
:func:`required_pairs`, :func:`is_minimal_relation` and the
essential-pair test of :func:`minimal_extensions` — is answered by
:func:`refuted_deletions`, in one pass over the arena for all pairs at
once.  A history's closed subhistories read a relation only through
``inv ≥ e`` with ``e`` the event of one of its live operations and
``inv`` the invocation of one of its live operations or of an append
it rejects.  On a history that lacks either side of a pair, the valid
relation less that pair closes exactly as the valid relation does,
which has no counterexample there; so each pair is searched only on
the histories that hold both sides.

To make repeated verification cheap (one arena serves every relation a
theorem puts to it), a :class:`VerificationArena` enumerates the bounded
history universe and classifies the candidate appended events at most
once, *on demand*: a search that meets its counterexample early pays
only for the universe up to that witness, the first search that runs to
the end completes the arena, and every later check replays it.  The
explorer hands the arena each history's admission-trie node, so every
candidate append is one step from it.  Whether a closed
subhistory admits an append does not depend on the relation that made it
closed, so that answer is kept beside the arena entry too: a search
enumerates closed kept sets as bitmasks (``closure.OpMasks``) and asks
the property only about views no earlier search over the arena met.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.atomicity.explore import ExplorationBounds, multi_property_histories
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
        #: Per entry, the trie node of each prefix of its history by
        #: length (``None`` short of the Begins): a projection agrees with
        #: its history up to the first operation it drops.
        self.prefix_nodes: list[tuple[dict | None, ...]] = []

    def _build(self) -> Iterator[tuple[BehavioralHistory, tuple[Op, ...]]]:
        prop = self.property
        ops: dict[str, tuple[Op, ...]] = {}  # each candidate append, built once
        path: list[dict | None] = []  # nodes of the yielded history's prefixes
        for history, (node,) in multi_property_histories([prop], self.bounds.exploration):
            # Depth first: every prefix from the Begins on was yielded last
            # at its length.
            del path[len(history) :]
            path += [None] * (len(history) - len(path))
            path.append(node)
            rejected: list[Op] = []
            for action in sorted(history.active):
                candidates = ops.get(action)
                if candidates is None:
                    candidates = ops[action] = tuple(
                        Op(event, action) for event in self.append_events
                    )
                for op in candidates:
                    if prop.step(node, history, op) is None:
                        rejected.append(op)
            if rejected:
                self.prefix_nodes.append(tuple(path))
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
    for slot, (history, rejected) in enumerate(arena.entries):
        masks = OpMasks(history, relation)
        found = _slot_counterexample(arena, slot, history, enumerate(rejected), masks, {})
        if found is not None:
            return found
    return None


def _slot_counterexample(
    arena: VerificationArena,
    slot: int,
    history: BehavioralHistory,
    appends: Iterable[tuple[int, Op]],
    masks: OpMasks,
    views: dict[int, tuple[BehavioralHistory, dict | None]],
) -> Counterexample | None:
    """The first violation at the arena's ``slot``-th entry, of
    ``history``, under the relation ``masks`` was built for: ``appends``
    (``(position among the entry's rejected appends, op)``) in order,
    kept masks ascending.  ``views`` holds the projections decided so
    far at this entry, by kept mask — a mask names one view under any
    relation."""
    prop = arena.property
    view_admitted = arena.view_admitted
    for which, op in appends:
        required = masks.depended_on(op.event.inv)
        for kept in masks.closed(required, proper_only=True):
            admitted = view_admitted.get((slot, which, kept))
            if admitted is None:
                # Each projection is decided once, from the node of the
                # prefix it shares with the history (up to the first
                # operation it drops); every rejected append is one step
                # from its node.
                decided = views.get(kept)
                if decided is None:
                    view = project(history, masks.indices_of(kept))
                    dropped = masks.full & ~kept
                    first = masks.indices[(dropped & -dropped).bit_length() - 1]
                    node = prop.extend(
                        arena.prefix_nodes[slot][first],
                        history.prefix(first),
                        view.entries[first:],
                    )
                    decided = views[kept] = view, node
                view, node = decided
                admitted = node is not None and prop.step(node, view, op) is not None
                view_admitted[slot, which, kept] = admitted
            if admitted:
                kept_ops = masks.indices_of(kept)
                return Counterexample(history, project(history, kept_ops), kept_ops, op)
    return None


def refuted_deletions(
    valid: DependencyRelation,
    pairs: Iterable[GroundPair],
    arena: VerificationArena,
) -> frozenset[GroundPair]:
    """The pairs of ``pairs`` (all in ``valid``) whose deletion from
    ``valid`` breaks Definition 2, for a ``valid`` with no counterexample
    in the arena — in one pass over it.

    ``OpMasks(H, R)`` asks ``R`` only whether ``inv ≥ e`` for ``e`` the
    event of a live operation of ``H`` and ``inv`` the invocation of a
    live operation of ``H`` or of an append ``H`` rejects.  For a pair
    ``(inv, e)`` missing either side at an entry, ``valid.without(pair)``
    therefore has ``valid``'s masks there and finds what ``valid`` finds:
    nothing.  Elsewhere its masks are ``valid``'s less the pair
    (:meth:`OpMasks.without`).  So a pair is searched only at the entries that hold
    both sides, and only until one refutes it.  Where ``inv`` is the
    invocation of no live operation, the deletion leaves every closure
    constraint as it was and changes only what appends of ``inv``
    require, so only those appends are searched.
    """
    pending = {pair: rank for rank, pair in enumerate(sorted(pairs, key=str))}
    refuted: set[GroundPair] = set()
    for slot, (history, rejected) in enumerate(arena.entries if pending else ()):
        aborted = history.aborted
        events = {op.event for op in history.ops() if op.action not in aborted}
        live = {event.inv for event in events}
        appends_of: dict[Invocation, list[tuple[int, Op]]] = {}
        for which, op in enumerate(rejected):
            appends_of.setdefault(op.event.inv, []).append((which, op))
        here = sorted(
            (
                pair
                for pair in itertools.product(live.union(appends_of), events)
                if pair in pending
            ),
            key=pending.__getitem__,
        )
        if not here:
            continue
        masks = OpMasks(history, valid)
        views: dict[int, tuple[BehavioralHistory, dict | None]] = {}
        for pair in here:
            invocation = pair[0]
            appends = (
                enumerate(rejected) if invocation in live else appends_of[invocation]
            )
            if _slot_counterexample(arena, slot, history, appends, masks.without(pair), views):
                refuted.add(pair)
                del pending[pair]
        if not pending:
            break
    return frozenset(refuted)


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

    All deletions are searched in one pass (:func:`refuted_deletions`).
    A ``universe`` that is itself refuted makes every pair required:
    deleting pairs only adds closed subhistories and drops required
    entries, so its counterexample refutes every smaller relation too.
    """
    total = universe if universe is not None else arena.universe_pairs()
    if not is_dependency_relation(total, arena):
        return total
    return DependencyRelation(refuted_deletions(total, total.pairs, arena))


def is_minimal_relation(
    relation: DependencyRelation,
    arena: VerificationArena,
) -> bool:
    """Is ``relation`` valid with every single-pair deletion invalid?"""
    if not is_dependency_relation(relation, arena):
        return False
    return refuted_deletions(relation, relation.pairs, arena) == relation.pairs


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
    candidates = [pair for pair in candidates if pair not in core.pairs]
    for size in range(max_added + 1):
        for added in itertools.combinations(candidates, size):
            extended = core
            for pair in added:
                extended = extended.with_pair(pair)
            if not is_dependency_relation(extended, arena):
                continue
            if refuted_deletions(extended, added, arena) == frozenset(added):
                yield extended
