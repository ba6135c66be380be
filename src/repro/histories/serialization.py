"""Serializations of behavioral histories.

The serialization of a behavioral history ``H`` in a total order ``>>``
is the serial history constructed by reordering the events in ``H`` so
that if ``B >> A`` then the subsequence of events associated with ``A``
precedes the subsequence associated with ``B`` (paper, Section 3.1).

Three families of serializations appear in the paper:

* **static** serializations commit some set of active actions and
  serialize all non-aborted actions in the order of their Begin events;
* **hybrid** serializations do the same in the order of Commit events
  (newly committed actions follow all previously committed ones, in every
  possible relative order);
* **dynamic** serializations use every order consistent with the partial
  ``precedes`` order (A precedes B if B executes an operation after A
  commits — Section 5).

Each generator below yields *deduplicated* serial histories (two distinct
orders can induce the same serial history when some actions executed no
events).
"""

from __future__ import annotations

from itertools import chain, combinations, permutations
from typing import Iterable, Iterator, Sequence

from repro.histories.behavioral import Action, BehavioralHistory, Commit, Op
from repro.histories.events import Event, SerialHistory


def serialize(history: BehavioralHistory, order: Sequence[Action]) -> SerialHistory:
    """Serialize ``history`` in the given total order of actions.

    Only events of actions listed in ``order`` are included; each
    action's events keep their relative order from the history.
    """
    result: list[Event] = []
    for action in order:
        result.extend(history.events_of(action))
    return tuple(result)


def action_subsets(items: frozenset[Action]) -> Iterator[tuple[Action, ...]]:
    ordered = sorted(items)
    return chain.from_iterable(
        combinations(ordered, size) for size in range(len(ordered) + 1)
    )


def relevant_active(history: BehavioralHistory) -> frozenset[Action]:
    """Active actions that executed at least one event.

    Actions that began but executed nothing contribute no events to any
    serialization, so committing them changes nothing; excluding them
    from subset enumeration is a pure optimization (long histories from
    the replication runtime would otherwise enumerate 2^|actions|
    subsets of idle actions).
    """
    return frozenset(a for a in history.active if history.events_of(a))


def static_serializations(history: BehavioralHistory) -> Iterator[SerialHistory]:
    """Yield every static serialization of ``history``.

    A static serialization commits some set of active actions and
    serializes the committed actions in the order of their Begin events
    (paper, Section 4).
    """
    committed = history.committed
    seen: set[SerialHistory] = set()
    for subset in action_subsets(relevant_active(history)):
        included = committed | set(subset)
        order = [a for a in history.begin_order if a in included]
        serial = serialize(history, order)
        if serial not in seen:
            seen.add(serial)
            yield serial


def hybrid_serializations(history: BehavioralHistory) -> Iterator[SerialHistory]:
    """Yield every hybrid serialization of ``history``.

    A hybrid serialization commits some set of active actions and
    serializes committed actions in the order of their Commit events.
    Newly committed actions receive commit timestamps later than every
    existing Commit, in every possible relative order.
    """
    base = list(history.commit_order)
    seen: set[SerialHistory] = set()
    for subset in action_subsets(relevant_active(history)):
        for tail in permutations(subset):
            serial = serialize(history, base + list(tail))
            if serial not in seen:
                seen.add(serial)
                yield serial


def precedes_pairs(history: BehavioralHistory) -> frozenset[tuple[Action, Action]]:
    """The ``precedes`` partial order of Section 5, as a set of pairs.

    ``(A, B)`` is included when B executes an operation after A commits.
    The result is irreflexive and (by construction from a linear history)
    acyclic.
    """
    pairs: set[tuple[Action, Action]] = set()
    committed_so_far: list[Action] = []
    for entry in history:
        if isinstance(entry, Commit):
            committed_so_far.append(entry.action)
        elif isinstance(entry, Op):
            for earlier in committed_so_far:
                if earlier != entry.action:
                    pairs.add((earlier, entry.action))
    return frozenset(pairs)


def linear_extensions(
    nodes: Sequence[Action], pairs: Iterable[tuple[Action, Action]]
) -> Iterator[tuple[Action, ...]]:
    """Yield every linear extension of the partial order ``pairs`` on ``nodes``."""
    node_set = set(nodes)
    succ: dict[Action, set[Action]] = {n: set() for n in nodes}
    indegree: dict[Action, int] = {n: 0 for n in nodes}
    for a, b in pairs:
        if a in node_set and b in node_set and b not in succ[a]:
            succ[a].add(b)
            indegree[b] += 1

    prefix: list[Action] = []

    def extend() -> Iterator[tuple[Action, ...]]:
        if len(prefix) == len(nodes):
            yield tuple(prefix)
            return
        for node in sorted(node_set):
            if indegree[node] == 0:
                node_set.remove(node)
                prefix.append(node)
                for later in succ[node]:
                    indegree[later] -= 1
                yield from extend()
                for later in succ[node]:
                    indegree[later] += 1
                prefix.pop()
                node_set.add(node)

    return extend()


def dynamic_serializations(history: BehavioralHistory) -> Iterator[SerialHistory]:
    """Yield every dynamic serialization of ``history``.

    A dynamic serialization commits some set of active actions and
    serializes them, together with the already-committed actions, in an
    order consistent with the ``precedes`` partial order (Section 5).
    """
    pairs = precedes_pairs(history)
    committed = history.committed
    seen: set[SerialHistory] = set()
    for subset in action_subsets(relevant_active(history)):
        nodes = sorted(committed | set(subset))
        for order in linear_extensions(nodes, pairs):
            serial = serialize(history, order)
            if serial not in seen:
                seen.add(serial)
                yield serial

