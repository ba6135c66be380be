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
illegal".  So each such ``(x, y)`` records ``(x.inv, y)`` *and*
``(y.inv, x)``.

And the query reads its histories only through the states they can be
in (``h ≡ h'``, Section 5), so the search is bounded reachability in a
product of frontiers (:class:`~repro.spec.legality.MergedFrontiers`),
not a walk of the history tree.  With ``F1`` the frontier of ``h1``,
``A = F1·h2`` and ``C = F1·x·h2``, the query is: some ``h3`` is legal
after ``A``, ``C`` and ``A·y`` and illegal after ``C·y``.  Three rules
keep that exact under the bound ``|h1| + |h2| + |h3| ≤ max_events``:

* history steps range over the *generator* alphabet, ``x`` and ``y``
  over ``events`` — a restricted ``events`` does not shrink the histories;
* a frontier counts where it has the most events left (``F1`` at its
  shallowest depth), and a pair ``(A, C)`` met with a different number
  of events left is a different question;
* so both memos — the ``y`` reachable from ``(A, C)``, and "some ``h3``
  witnesses it" on the four frontiers — carry the length left.

Neither memo mentions ``x``, so every inserted event shares them; cost
follows the reachable frontier pairs, not the histories.  The literal
two-clause transcription over histories is the oracle of the
differential tests in ``tests/test_dependency_searches.py``.
"""

from __future__ import annotations

from repro.dependency.relation import DependencyRelation, GroundPair
from repro.histories.events import Event
from repro.spec.datatype import SerialDataType
from repro.spec.enumerate import event_alphabet
from repro.spec.legality import LegalityOracle, MergedFrontiers


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
    merged = MergedFrontiers(oracle)
    after, moves = merged.after, merged.moves
    memo: dict[tuple, bool] = {}

    def witnessed(a, c, a_y, c_y, left: int) -> bool:
        """Some ``h3`` of at most ``left`` generator events is legal after
        ``a``, ``c`` and ``a_y`` and illegal after ``c_y``."""
        if c_y is None:
            return True
        if left == 0 or a_y is c_y:
            return False
        key = (a, c, a_y, c_y, left)
        found = memo.get(key)
        if found is None:
            found = memo[key] = any(
                (c_g := after(c, g)) is not None
                and (a_y_g := after(a_y, g)) is not None
                and witnessed(a_g, c_g, a_y_g, after(c_y, g), left - 1)
                for g, a_g in moves(a)
            )
        return found

    reached: dict[tuple, set[Event]] = {}

    def interfering(a, c, left: int) -> set[Event]:
        """The ``y`` witnessed from ``(a·h2, c·h2)``, ``|h2| + |h3| ≤ left``."""
        if a is c:
            return set()
        found = reached.get((a, c, left))
        if found is None:
            found = reached[a, c, left] = {
                y
                for y in events
                if (a_y := after(a, y)) is not None
                and witnessed(a, c, a_y, after(c, y), left)
            }
            if left:
                for g, a_g in moves(a):
                    if (c_g := after(c, g)) is not None:
                        found |= interfering(a_g, c_g, left - 1)
        return found

    pairs: set[GroundPair] = set()
    for depth, level in enumerate(merged.levels(max_events)):
        for f1 in level:
            for x in events:
                if (c := after(f1, x)) is not None:
                    for y in interfering(f1, c, max_events - depth):
                        pairs.update(((x.inv, y), (y.inv, x)))
    return DependencyRelation(pairs)
