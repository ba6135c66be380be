"""Reference computations the tests compare ``src/`` against.

Each function here is a literal, slow transcription of a definition whose
fast form runs in ``src/``; nothing under ``src/`` calls them.

* :func:`commit_order_serial` — a view's committed events in commit
  order, the executing transaction's own last (the serialization
  Definition 3 gives hybrid atomicity), against the serial cache's
  commit-order checkpoints;
* :func:`pick_response` — the commit-order response choice by replay and
  trial, against ``CCScheme._commit_order_event``;
* :func:`legal_serial_histories` — the bounded history universe the
  two-pass definitions walk;
* :func:`commute` — Definition 8 for one pair, against
  ``commutativity_table``;
* :func:`distinguishing_suffix` — observational inequivalence, against
  ``LegalityOracle.equivalent``;
* :func:`dynamic_serializations` — every ``precedes``-consistent
  serialization (Section 5), against the hybrid ones;
* :func:`reference_closed_subhistories` and
  :func:`reference_dependent_op_indices` — Definition 1 as a subset loop
  with a pairwise violation scan, against ``closure.OpMasks``.
* :func:`folded_view` — an initial quorum's view (Section 3.2) by set
  algebra, against ``viewcache.fold_view``.
"""

from __future__ import annotations

from typing import Iterator

from repro.histories.behavioral import BehavioralHistory, Op
from repro.histories.events import Event, Invocation, Response, SerialHistory
from repro.histories.serialization import (
    action_subsets,
    linear_extensions,
    precedes_pairs,
    relevant_active,
    serialize,
)
from repro.replication.view import View
from repro.spec.datatype import SerialDataType
from repro.spec.legality import LegalityOracle
from repro.txn.ids import ActionId


def commit_order_serial(view: View, own: ActionId | None = None) -> SerialHistory:
    """Committed events of ``view`` in commit order, ``own``'s appended.

    This is the hybrid serialization in which ``own`` commits next:
    under hybrid atomicity a response legal for this serial history is
    the correct choice for the view.
    """
    order = [action for action in view.committed_actions() if action != own]
    if own is not None:
        order.append(own)
    return tuple(
        entry.event for action in order for entry in view.log.entries_of(action)
    )


def pick_response(
    oracle: LegalityOracle,
    prefix: SerialHistory,
    invocation: Invocation,
    base_state=None,
) -> Event | None:
    """Choose a response legal after ``prefix``.

    Responses are tried in sorted-render order, each replayed from
    ``base_state`` (the type's initial state when ``None``) through
    ``prefix`` and the candidate event.  Returns ``None`` when no
    response works.
    """
    node = oracle._node(prefix, base_state)
    for response in sorted(oracle._node_responses(node, invocation), key=str):
        event = Event(invocation, response)
        if oracle._node(prefix + (event,), base_state).frontier is not None:
            return event
    return None


def legal_serial_histories(
    datatype: SerialDataType,
    max_events: int,
    oracle: LegalityOracle | None = None,
) -> Iterator[SerialHistory]:
    """Yield every legal serial history with at most ``max_events`` events.

    Depth first, the empty history first, sibling events in string order
    per invocation; prefix closure makes pruning illegal prefixes exact.
    """
    oracle = oracle or LegalityOracle(datatype)
    invocations = list(datatype.invocations())

    def extend(history: SerialHistory, node) -> Iterator[SerialHistory]:
        yield history
        if len(history) >= max_events:
            return
        for inv in invocations:
            for res in sorted(oracle._node_responses(node, inv), key=str):
                event = Event(inv, res)
                yield from extend(history + (event,), oracle._step(node, event))

    return extend((), oracle._node(()))


def commute(
    datatype: SerialDataType,
    first: Event,
    second: Event,
    max_events: int = 4,
    oracle: LegalityOracle | None = None,
) -> bool:
    """Definition 8, bounded: do ``first`` and ``second`` commute?

    Checks every legal serial history ``h`` of at most ``max_events``
    events: whenever ``h·first`` and ``h·second`` are both legal,
    ``h·first·second`` and ``h·second·first`` must be equivalent legal
    histories.
    """
    oracle = oracle or LegalityOracle(datatype)
    for history in legal_serial_histories(datatype, max_events, oracle):
        if not (
            oracle.is_legal(history + (first,))
            and oracle.is_legal(history + (second,))
        ):
            continue
        forward = history + (first, second)
        backward = history + (second, first)
        if not oracle.is_legal(forward) or not oracle.is_legal(backward):
            return False
        if not oracle.equivalent(forward, backward):
            return False
    return True


def reachable_responses(
    datatype: SerialDataType, depth: int
) -> dict[Invocation, set[Response]]:
    """Per invocation, every response it can receive in a state reachable
    within ``depth`` steps (one breadth-first pass over the states)."""
    invocations = list(datatype.invocations())
    by_invocation: dict[Invocation, set[Response]] = {inv: set() for inv in invocations}
    seen: set = set()
    frontier = [datatype.initial_state()]
    for _ in range(depth + 1):
        next_frontier = []
        for state in frontier:
            key = datatype.canonical(state)
            if key in seen:
                continue
            seen.add(key)
            for inv in invocations:
                for response, next_state in datatype.apply(state, inv):
                    by_invocation[inv].add(response)
                    next_frontier.append(next_state)
        frontier = next_frontier
    return by_invocation


def distinguishing_suffix(
    oracle: LegalityOracle, first: SerialHistory, second: SerialHistory, depth: int
) -> SerialHistory | None:
    """A suffix of at most ``depth`` events legal after exactly one history.

    The observational inequivalence test of the paper's definition
    (``h·s`` legal iff ``h'·s`` legal for all ``s``), bounded to suffixes
    over the generator alphabet.  Returns a witness suffix or ``None``.
    """
    datatype = oracle.datatype
    responses = reachable_responses(datatype, depth)
    alphabet = [
        Event(inv, res) for inv in datatype.invocations() for res in responses[inv]
    ]

    def search(sfx: tuple[Event, ...], remaining: int) -> SerialHistory | None:
        legal_first = oracle.is_legal(first + sfx)
        legal_second = oracle.is_legal(second + sfx)
        if legal_first != legal_second:
            return sfx
        if remaining == 0 or not (legal_first or legal_second):
            return None
        for event in alphabet:
            witness = search(sfx + (event,), remaining - 1)
            if witness is not None:
                return witness
        return None

    return search((), depth)


def dynamic_serializations(history: BehavioralHistory) -> Iterator[SerialHistory]:
    """Yield every dynamic serialization of ``history``, deduplicated.

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


# -- the literal Definition 1 ------------------------------------------------
#
# What ``closure.py`` computed before it moved to op-position bitmasks: a
# subset loop over the optional entries, a pairwise violation scan per
# subset.  ``tests/test_verify.py`` builds the literal Definition 2
# search on top of it.


def op_indices(history: BehavioralHistory) -> tuple[int, ...]:
    return tuple(
        index for index, entry in enumerate(history) if isinstance(entry, Op)
    )


def violates_closure(history, relation, kept) -> bool:
    """Does ``kept`` violate closure: a kept entry depends on a dropped earlier one?"""
    aborted = history.aborted
    entries = history.entries
    for index in kept:
        entry = entries[index]
        assert isinstance(entry, Op)
        if entry.action in aborted:
            continue
        for earlier_index in op_indices(history):
            if earlier_index >= index or earlier_index in kept:
                continue
            earlier = entries[earlier_index]
            if earlier.action in aborted:
                continue
            if relation.depends(entry.event.inv, earlier.event):
                return True
    return False


def reference_closed_subhistories(
    history, relation, required_ops=frozenset(), *, proper_only=False
):
    ops = op_indices(history)
    optional = [index for index in ops if index not in required_ops]
    for bits in range(1 << len(optional)):
        kept = set(required_ops)
        for position, index in enumerate(optional):
            if bits & (1 << position):
                kept.add(index)
        kept_frozen = frozenset(kept)
        if proper_only and len(kept_frozen) == len(ops):
            continue
        if not violates_closure(history, relation, kept_frozen):
            yield kept_frozen, BehavioralHistory(
                entry
                for index, entry in enumerate(history)
                if not isinstance(entry, Op) or index in kept_frozen
            )


def reference_dependent_op_indices(history, relation, invocation):
    aborted = history.aborted
    return frozenset(
        index
        for index, entry in enumerate(history)
        if isinstance(entry, Op)
        and entry.action not in aborted
        and relation.depends(invocation, entry.event)
    )


def folded_view(replies) -> tuple[frozenset, object]:
    """An initial quorum's view by set algebra, against ``fold_view``.

    ``replies`` are the quorum's ``(fragment, snapshot)`` pairs in visit
    order.  The elected snapshot is the last one that covers and
    discards at least what the one elected before it did; the view is
    every entry of every fragment except those of the actions that
    snapshot covered or discarded (a lagging repository may still hold
    them).  Returns ``(entries, snapshot or None)``.
    """
    entries, best = set(), None
    for fragment, snapshot in replies:
        entries |= fragment.entry_set
        if snapshot is not None and (
            best is None
            or (best.covered <= snapshot.covered and best.discarded <= snapshot.discarded)
        ):
            best = snapshot
    if best is not None:
        gone = best.covered | best.discarded
        entries = {entry for entry in entries if entry.action not in gone}
    return frozenset(entries), best
