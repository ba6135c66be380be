"""Closed subhistories (paper, Definition 1).

``G`` is a closed subhistory of ``H`` under a relation ``≥`` if ``G`` is
an (order-preserving) subhistory of ``H`` and, whenever ``G`` contains an
operation entry ``[e A]``, it also contains every earlier entry
``[e' A']`` of ``H`` with ``e.inv ≥ e'`` — unless ``A`` or ``A'`` has
aborted.

Modeling note.  In the quorum-consensus method a front-end's *view* may
miss operation entries (those live only in unqueried repositories) but
knows transaction status; accordingly a closed subhistory here always
retains every Begin/Commit/Abort entry of ``H`` and drops only operation
entries.  This matches the constructions in the paper's proofs, where
``G`` is always "all events of H except the last".

Since only operation entries are ever dropped, a subhistory *is* a set of
operation positions, and the definition is computed on bitmasks over
them (:class:`OpMasks`): one table per ``(history, relation)``, one AND
per kept operation to test closure.  The Definition 2 search
(:mod:`repro.dependency.verify`) enumerates closed masks through it.
The literal transcription — a subset loop and a pairwise scan — lives
in ``tests/test_closure.py`` as the reference this module is compared
against.
"""

from __future__ import annotations

from typing import Iterator

from repro.dependency.relation import DependencyRelation
from repro.histories.behavioral import BehavioralHistory, Op
from repro.histories.events import Event, Invocation


class OpMasks:
    """Definition 1 for one history under one relation, on bitmasks.

    Bit ``p`` of a mask is the history's ``p``-th operation entry, found
    at entry index ``indices[p]``; ``needs[p]`` is the mask of the earlier
    live (non-aborted) operations its invocation depends on, ``0`` if its
    own action aborted.  ``K`` is closed iff no kept ``p`` has
    ``needs[p] & ~K``.  The helpers below and the Definition 2 search all
    read closure off this one table.
    """

    def __init__(self, history: BehavioralHistory, relation: DependencyRelation):
        self._depends = relation.depends
        aborted = history.aborted
        self.indices: list[int] = []
        self.needs: list[int] = []
        self._live: list[tuple[int, Event]] = []  # (bit, event), history order
        for index, entry in enumerate(history):
            if isinstance(entry, Op):
                live = entry.action not in aborted
                self.needs.append(self.depended_on(entry.event.inv) if live else 0)
                if live:
                    self._live.append((1 << len(self.indices), entry.event))
                self.indices.append(index)
        self.full = (1 << len(self.indices)) - 1

    def depended_on(self, invocation: Invocation) -> int:
        """The live operations (met so far) that ``invocation`` depends on."""
        return sum(bit for bit, event in self._live if self._depends(invocation, event))

    def is_closed(self, kept: int) -> bool:
        for p, need in enumerate(self.needs):
            if kept >> p & 1 and need & ~kept:
                return False
        return True

    def closed(self, required: int, *, proper_only: bool = False) -> Iterator[int]:
        """Closed masks ``K ⊇ required``, ascending — the order in which a
        counter over the optional operations alone visits them, since
        spreading its bits over their positions preserves ``<``."""
        optional = self.full & ~required
        chosen = 0
        while True:
            kept = required | chosen
            if not (proper_only and kept == self.full) and self.is_closed(kept):
                yield kept
            chosen = (chosen - optional) & optional  # the next submask up
            if not chosen:
                return

    def indices_of(self, mask: int) -> frozenset[int]:
        return frozenset(i for p, i in enumerate(self.indices) if mask >> p & 1)


def project(history: BehavioralHistory, kept_ops: frozenset[int]) -> BehavioralHistory:
    """The subhistory keeping all non-operation entries and ``kept_ops``."""
    return history.subhistory(kept_ops)

