"""Bounded event alphabets of a data type.

The model-checking kernel needs two finite universes derived from a
data type's generator alphabet:

* every event — invocation/response pair — that occurs in some legal
  serial history of at most ``depth`` events (:func:`event_alphabet`);
* the responses each invocation can receive (the second half of
  :func:`alphabets`).

The alphabets do not need the histories: what a prefix contributes
depends on its frontier and on how many events are left, and fewer
events used only adds.  So :func:`alphabets` expands each distinct
frontier once, at its shallowest depth
(:meth:`~repro.spec.legality.MergedFrontiers.levels`), and
:func:`event_alphabet` is a view over that one pass.  The two-pass
definitions over the histories (enumerated by
``tests/oracles.py::legal_serial_histories``) are the oracle of the
differential tests (``tests/test_dependency_searches.py``).
"""

from __future__ import annotations

from repro.histories.events import Event, Invocation, Response
from repro.spec.datatype import SerialDataType
from repro.spec.legality import LegalityOracle, MergedFrontiers


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
    within ``depth`` events.
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

