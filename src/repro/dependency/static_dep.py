"""The unique minimal static dependency relation (Theorem 6).

Theorem 6 characterizes the minimal static dependency relation ``≥s``
directly in terms of the serial specification: ``inv ≥s e`` iff there
exist a response ``res`` and serial histories ``h1, h2, h3`` with
``h1·h2·h3`` legal such that either

1. ``h1·[inv;res]·h2·h3`` and ``h1·h2·e·h3`` are legal but
   ``h1·[inv;res]·h2·e·h3`` is illegal — a later ``e`` invalidates the
   response chosen for ``inv``; or
2. ``h1·e·h2·h3`` and ``h1·h2·[inv;res]·h3`` are legal but
   ``h1·e·h2·[inv;res]·h3`` is illegal — a missing earlier ``e`` makes
   the chosen response wrong.

:func:`minimal_static_dependency` evaluates this characterization
exhaustively over all legal serial histories with at most ``max_events``
events, yielding the ground relation.  The search is monotone in the
bound: raising ``max_events`` can only add pairs.

The two clauses are one query.  Write ``x`` for the event inserted after
``h1`` and ``y`` for the event inserted after ``h2``: clause 1 with
``[inv;res] = x, e = y`` and clause 2 with ``e = x, [inv;res] = y`` both
read "``h1·x·h2·h3`` and ``h1·h2·y·h3`` legal, ``h1·x·h2·y·h3``
illegal".  So each illegal ``h1·x·h2·y·h3`` records ``(x.inv, y)`` *and*
``(y.inv, x)``, and the two legality premises — neither mentions both
events — are hoisted out of the pair loop: the ``y`` that may follow
``h2`` are found once per ``(h1·h2, h3)``, and a
:class:`~repro.spec.legality.LegalityCursor` pinned at ``h1·x·h2``
serves every ``y``.  Each prefix is replayed once rather than once per
query.  The literal two-clause transcription (six root replays per
``(split, inv, e)``) is the oracle of the differential test in
``tests/test_dependency_searches.py``.
"""

from __future__ import annotations

from repro.dependency.relation import DependencyRelation, GroundPair
from repro.histories.events import Event
from repro.spec.datatype import SerialDataType
from repro.spec.enumerate import event_alphabet, legal_serial_histories
from repro.spec.legality import LegalityOracle


def minimal_static_dependency(
    datatype: SerialDataType,
    max_events: int = 4,
    oracle: LegalityOracle | None = None,
    events: tuple[Event, ...] | None = None,
) -> DependencyRelation:
    """Compute ``≥s`` by the Theorem 6 search, bounded at ``max_events``.

    ``max_events`` bounds the length of ``h1·h2·h3``; ``events``
    optionally fixes the event alphabet used for both the inserted
    ``[inv;res]`` events and the interfering ``e`` events (default: the
    alphabet of legal histories of ``max_events + 2`` events, so that
    insertions cannot escape the alphabet).
    """
    oracle = oracle or LegalityOracle(datatype)
    if events is None:
        events = event_alphabet(datatype, max_events + 2, oracle)
    pairs: set[GroundPair] = set()
    for history in legal_serial_histories(datatype, max_events, oracle):
        prefix = [oracle.cursor()]
        for occurred in history:
            prefix.append(prefix[-1].step(occurred))
        for j in range(len(history) + 1):
            h3 = history[j:]
            later = [
                (y, y_h3)
                for y in events
                if prefix[j].walk(y_h3 := (y, *h3)).legal
            ]
            for i in range(j + 1):
                for x in events:
                    at_x = prefix[i].walk((x, *history[i:j]))
                    if not at_x.walk(h3).legal:
                        continue
                    for y, y_h3 in later:
                        if not at_x.walk(y_h3).legal:
                            pairs.add((x.inv, y))
                            pairs.add((y.inv, x))
    return DependencyRelation(pairs)
