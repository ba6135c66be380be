"""Bounded enumeration of behavioral histories admitted by a property.

The dependency-relation verifier (Definition 2) and the concurrency
comparison of Figure 1-1 both quantify over "all behavioral histories in
the specification".  This module enumerates that universe exhaustively up
to explicit bounds, using two soundness-preserving canonicalizations:

* **Begins at the front.**  For all three properties, membership and
  closed-subhistory structure depend only on the begin *order* of
  actions, never on where Begin entries sit relative to operations; and
  begin order itself is covered up to action relabeling by fixing the
  order ``A < B < C ...`` and letting the search assign operations to
  actions freely.
* **First-operation order** (label symmetry) — applied only when *no*
  property under enumeration is begin-order sensitive.  For hybrid and
  strong dynamic atomicity, action labels are interchangeable, so the
  search requires that action ``B`` not execute its first operation
  before action ``A`` does, and every history is enumerated exactly once
  up to relabeling.  For **static** atomicity the begin positions of
  actions are semantic (the begins sit at the front in label order), so
  the reduction is disabled: any active action may act at any time —
  including a later-begun action acting before an earlier-begun one,
  the shape of the paper's Theorem 5 witness.

Commit and Abort entries are interleaved freely (their position matters:
for the ``precedes`` order of strong dynamic atomicity directly, and for
all properties through prefix-closure).  Commit/Abort entries for actions
that executed no operations are skipped — such entries are inert for
membership, serialization, and closure alike.

Because each property's specification is prefix-closed, pruning the
search at the first rejected prefix is exact.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.atomicity.properties import LocalAtomicityProperty
from repro.histories.behavioral import (
    Abort,
    Action,
    Begin,
    BehavioralHistory,
    Commit,
    Entry,
    Op,
)
from repro.histories.events import Event
from repro.spec.enumerate import event_alphabet


@dataclass(frozen=True)
class ExplorationBounds:
    """Bounds for behavioral-history enumeration.

    ``max_ops`` bounds the number of operation entries, ``max_actions``
    the number of actions.  ``events`` fixes the event alphabet
    explicitly; when ``None`` it is derived from the data type by
    enumerating legal serial histories of ``alphabet_depth`` events
    (default: ``max_ops``).
    """

    max_ops: int = 3
    max_actions: int = 3
    include_aborts: bool = False
    events: tuple[Event, ...] | None = None
    alphabet_depth: int | None = None

    def resolve_events(self, prop: LocalAtomicityProperty) -> tuple[Event, ...]:
        if self.events is not None:
            return self.events
        depth = self.alphabet_depth if self.alphabet_depth is not None else self.max_ops
        return event_alphabet(prop.datatype, depth, prop.oracle)


def _action_labels(count: int) -> tuple[Action, ...]:
    if count > len(string.ascii_uppercase):
        raise ValueError("at most 26 actions supported")
    return tuple(string.ascii_uppercase[:count])


def behavioral_histories(
    prop: LocalAtomicityProperty,
    bounds: ExplorationBounds,
) -> Iterator[BehavioralHistory]:
    """Yield every admitted history within ``bounds``, up to isomorphism.

    Every yielded history is admitted by ``prop`` (it lies in the largest
    prefix-closed on-line specification for the property) and begins with
    ``Begin`` entries for all ``bounds.max_actions`` actions.
    """
    for history, _nodes in multi_property_histories([prop], bounds):
        yield history


def multi_property_histories(
    props: Sequence[LocalAtomicityProperty],
    bounds: ExplorationBounds,
) -> Iterator[tuple[BehavioralHistory, tuple[dict | None, ...]]]:
    """Enumerate over the union of several properties' specifications.

    Yields ``(history, nodes)`` where ``nodes[i]`` is ``props[i]``'s
    trie node for the history (what ``decided`` returns), ``None`` where
    ``props[i]`` rejects it: a caller steps candidates from there.  A
    branch is abandoned when *no* property admits it — sound because
    every property's specification is prefix-closed.  This is the
    primitive behind the Figure 1-1 concurrency comparison, where the
    same universe must be classified under all three properties, and
    behind the Definition 2 arena.
    """
    if not props:
        raise ValueError("need at least one property")
    events = bounds.resolve_events(props[0])
    labels = _action_labels(bounds.max_actions)
    base = BehavioralHistory([Begin(a) for a in labels])
    label_symmetric = not any(prop.begin_order_sensitive for prop in props)

    def candidates(history: BehavioralHistory, op_count: int) -> Iterator[Entry]:
        active = history.active
        acted = {e.action for e in history.ops()}
        if op_count < bounds.max_ops:
            if label_symmetric:
                idle = sorted(a for a in active if a not in acted)
                allowed = sorted(a for a in active if a in acted)
                if idle:
                    allowed.append(idle[0])  # canonical first-op order
            else:
                allowed = sorted(active)
            for action in allowed:
                for event in events:
                    yield Op(event, action)
        for action in sorted(active & acted):
            yield Commit(action)
            if bounds.include_aborts:
                yield Abort(action)

    def search(
        history: BehavioralHistory, nodes: tuple[dict | None, ...], op_count: int
    ) -> Iterator[tuple[BehavioralHistory, tuple[dict | None, ...]]]:
        # Each candidate is one step from ``nodes``.
        yield history, nodes
        for entry in candidates(history, op_count):
            children = tuple(
                None if node is None else prop.step(node, history, entry)
                for node, prop in zip(nodes, props)
            )
            if any(child is not None for child in children):
                yield from search(
                    history.append(entry),
                    children,
                    op_count + (1 if isinstance(entry, Op) else 0),
                )

    initial = tuple(prop.decided(base) for prop in props)
    if any(node is not None for node in initial):
        yield from search(base, initial, 0)
