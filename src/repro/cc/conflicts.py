"""Conflict predicates derived from the theory kernel.

The synchronization half of each scheme needs a fast answer to "may
these two operations run in concurrent uncommitted transactions?":

* the **locking** scheme conflicts exactly the non-commuting event pairs
  (Definition 8 / Theorem 10 — the same structure as the minimal dynamic
  dependency relation);
* the **hybrid** scheme conflicts pairs related by a hybrid dependency
  relation in either direction: a transaction must not build a view on
  an uncommitted event it depends on, nor create an event an active
  reader's response depended on the absence of.

Both predicates are precomputed into dictionaries over the event
alphabet so the runtime never replays histories on the hot path — and,
being functions of the type alone, once per data type value
(:func:`~repro.spec.facts.derived_once`), not once per object.
"""

from __future__ import annotations

from types import MappingProxyType

from repro.dependency.dynamic_dep import commutativity_table
from repro.dependency.relation import DependencyRelation
from repro.histories.events import Event
from repro.spec.datatype import SerialDataType
from repro.spec.enumerate import event_alphabet
from repro.spec.facts import derived_once
from repro.spec.legality import LegalityOracle


class ConflictTable:
    """A symmetric conflict predicate over ground events.

    Events outside the precomputed alphabet conservatively conflict with
    everything (sound: extra conflicts never violate atomicity, they
    only cost concurrency).  Read-only: one table is shared by every
    object of a data type.
    """

    def __init__(self, conflicts: dict[tuple[Event, Event], bool]):
        self._conflicts = MappingProxyType(dict(conflicts))

    def conflict(self, first: Event, second: Event) -> bool:
        return self._conflicts.get((first, second), True)

    def pairs(self) -> dict[tuple[Event, Event], bool]:
        return dict(self._conflicts)


def commutativity_conflicts(
    datatype: SerialDataType,
    max_events: int = 4,
    oracle: LegalityOracle | None = None,
    events: tuple[Event, ...] | None = None,
) -> ConflictTable:
    """Conflicts = non-commuting event pairs (two-phase locking).

    Over the type's own depth-``max_events + 2`` alphabet the table is
    derived once per data type value and depth, and every later call
    returns that same table (``oracle`` is then only where the first
    derivation memoizes its replays).  Over an explicit ``events``
    alphabet it is derived as asked, every time.
    """

    def derive() -> ConflictTable:
        legality = oracle or LegalityOracle(datatype)
        alphabet = events
        if alphabet is None:
            alphabet = event_alphabet(datatype, max_events + 2, legality)
        table = commutativity_table(datatype, max_events, legality, alphabet)
        return ConflictTable(
            {pair: not commutes for pair, commutes in table.items()}
        )

    if events is not None:
        return derive()
    return derived_once(datatype, ("commutativity_conflicts", max_events), derive)


def dependency_conflicts(
    relation: DependencyRelation,
    events: tuple[Event, ...],
) -> ConflictTable:
    """Conflicts = pairs related by ``relation`` in either direction."""
    conflicts: dict[tuple[Event, Event], bool] = {}
    for first in events:
        for second in events:
            conflicts[(first, second)] = relation.depends(
                first.inv, second
            ) or relation.depends(second.inv, first)
    return ConflictTable(conflicts)


def hybrid_conflicts(
    datatype: SerialDataType, relation: DependencyRelation
) -> ConflictTable:
    """The hybrid scheme's table: ``relation`` over the depth-4 alphabet.

    Derived once per data type value and relation; every later call
    returns that same table.
    """
    return derived_once(
        datatype,
        ("hybrid_conflicts", relation),
        lambda: dependency_conflicts(relation, event_alphabet(datatype, 4)),
    )
