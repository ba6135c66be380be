"""Bounded enumeration of legal serial histories and event alphabets.

The model-checking kernel needs three finite universes derived from a
data type's generator alphabet:

* every legal serial history of at most ``max_events`` events
  (:func:`legal_serial_histories`);
* every event — invocation/response pair — that occurs in some such
  history (:func:`event_alphabet`);
* the responses each invocation can receive (:func:`response_alphabet`).

Because serial specifications are prefix-closed, depth-first search with
pruning on illegal prefixes enumerates the history universe exactly
(:func:`legal_serial_histories`, one memoized trie hop per extension).

The alphabets do not need the histories: what a prefix contributes
depends on its frontier and on how many events are left, and fewer
events used only adds.  So :func:`alphabets` expands each distinct
frontier once, at its shallowest depth
(:meth:`~repro.spec.legality.MergedFrontiers.levels`), and
:func:`event_alphabet` / :func:`response_alphabet` are views over that
one pass.  The two-pass definitions over the histories are the oracle
of the differential tests (``tests/test_dependency_searches.py``).
"""

from __future__ import annotations

from typing import Iterator

from repro.histories.events import Event, Invocation, Response, SerialHistory
from repro.spec.datatype import SerialDataType
from repro.spec.legality import LegalityOracle, MergedFrontiers


def legal_serial_histories(
    datatype: SerialDataType,
    max_events: int,
    oracle: LegalityOracle | None = None,
) -> Iterator[SerialHistory]:
    """Yield every legal serial history with at most ``max_events`` events.

    Histories are yielded shortest-prefix-first along each branch (the
    empty history first), with sibling events in deterministic (string)
    order.  Supplying a shared ``oracle`` lets callers reuse replay
    memoization across searches.
    """
    oracle = oracle or LegalityOracle(datatype)
    invocations = list(datatype.invocations())

    def extend(history: SerialHistory, cursor) -> Iterator[SerialHistory]:
        yield history
        if len(history) >= max_events:
            return
        for inv in invocations:
            for res in sorted(cursor.responses(inv), key=str):
                event = Event(inv, res)
                yield from extend(history + (event,), cursor.step(event))

    return extend((), oracle.cursor())


def alphabets(
    datatype: SerialDataType,
    depth: int,
    oracle: LegalityOracle | None = None,
    *,
    collect_responses: bool = True,
) -> tuple[tuple[Event, ...], dict[Invocation, tuple[Response, ...]]]:
    """Event and response alphabets from one walk of the reachable frontiers.

    Returns ``(events, responses)`` where ``events`` is every event
    occurring in some legal history of at most ``depth`` events (what
    :func:`event_alphabet` returns) and ``responses`` maps each generator
    invocation to the responses it can receive in any state reachable
    within ``depth`` events (what :func:`response_alphabet` returns).
    Both are deterministic (sorted by rendering).

    ``collect_responses=False`` skips the response work at the leaf
    frontier (histories of exactly ``depth`` events), which the event
    alphabet alone never needs; the returned response map is then
    incomplete and callers must ignore it.
    """
    merged = MergedFrontiers(oracle or LegalityOracle(datatype))
    events: set[Event] = set()
    by_invocation: dict[Invocation, set[Response]] = {
        inv: set() for inv in datatype.invocations()
    }
    for length, level in enumerate(merged.levels(depth)):
        if length == depth and not collect_responses:
            break
        for node in level:
            for event in merged.enabled(node):
                by_invocation[event.inv].add(event.res)
                if length < depth:
                    events.add(event)
    return (
        tuple(sorted(events, key=str)),
        {
            inv: tuple(sorted(responses, key=str))
            for inv, responses in by_invocation.items()
        },
    )


def event_alphabet(
    datatype: SerialDataType,
    depth: int,
    oracle: LegalityOracle | None = None,
) -> tuple[Event, ...]:
    """Every event occurring in some legal history of at most ``depth`` events.

    The result is deterministic (sorted by rendering) so searches that
    iterate over it are reproducible.
    """
    return alphabets(datatype, depth, oracle, collect_responses=False)[0]


def response_alphabet(
    datatype: SerialDataType,
    depth: int,
    oracle: LegalityOracle | None = None,
) -> dict[Invocation, tuple[Response, ...]]:
    """Map each generator invocation to the responses it can receive.

    Considers every state reachable within ``depth`` events.
    """
    return alphabets(datatype, depth, oracle)[1]
