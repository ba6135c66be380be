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

from repro.dependency.relation import DependencyRelation, GroundPair
from repro.histories.behavioral import BehavioralHistory, Op
from repro.histories.events import Event, Invocation


class OpMasks:
    """Definition 1 for one history under one relation, on bitmasks.

    Bit ``p`` of a mask is the history's ``p``-th operation entry, found
    at entry index ``indices[p]``; ``needs[p]`` is the mask of the earlier
    live (non-aborted) operations its invocation depends on, ``0`` if its
    own action aborted.  ``K`` is closed iff no kept ``p`` has
    ``needs[p] & ~K``.  The helpers below and the Definition 2 search all
    read closure off this one table; :meth:`without` derives the table
    of the relation less one pair from it.
    """

    def __init__(self, history: BehavioralHistory, relation: DependencyRelation):
        self._depends = depends = relation.depends
        aborted = history.aborted
        self.indices: list[int] = []
        self.needs: list[int] = []
        self._live: list[tuple[int, Event]] = []  # (bit, event), history order
        self._invocations: list[Invocation | None] = []  # ``None``: aborted
        for index, entry in enumerate(history):
            if isinstance(entry, Op):
                need, invocation = 0, None
                if entry.action not in aborted:
                    event = entry.event
                    invocation = event.inv
                    for bit, earlier in self._live:
                        if depends(invocation, earlier):
                            need |= bit
                    self._live.append((1 << len(self.indices), event))
                self.needs.append(need)
                self._invocations.append(invocation)
                self.indices.append(index)
        self.full = (1 << len(self.indices)) - 1
        self._depended_on: dict[Invocation, int] = {}
        self._source = self._scan  # answers a ``depended_on`` miss

    def without(self, pair: GroundPair) -> OpMasks:
        """These masks under the relation less ``pair = (inv, e)``: where
        ``inv`` asks, the live operations of ``e`` are no longer needed.
        Every other invocation depends on what it did here, so these
        masks answer for it."""
        invocation, event = pair
        dropped = sum(bit for bit, earlier in self._live if earlier == event)
        masks = object.__new__(OpMasks)
        masks.indices, masks.full = self.indices, self.full
        masks._live, masks._invocations = self._live, self._invocations
        masks.needs = [
            need & ~dropped if asker == invocation else need
            for need, asker in zip(self.needs, self._invocations)
        ]
        masks._depended_on = {invocation: self.depended_on(invocation) & ~dropped}
        masks._source = self.depended_on
        return masks

    def depended_on(self, invocation: Invocation) -> int:
        """The live operations that ``invocation`` depends on."""
        mask = self._depended_on.get(invocation)
        if mask is None:
            mask = self._depended_on[invocation] = self._source(invocation)
        return mask

    def _scan(self, invocation: Invocation) -> int:
        depends = self._depends
        return sum(bit for bit, event in self._live if depends(invocation, event))

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

