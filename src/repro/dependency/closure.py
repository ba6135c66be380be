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
per kept operation to test closure.  The literal transcription — a
subset loop and a pairwise scan — lives in ``tests/test_closure.py`` as
the reference this module is compared against.
"""

from __future__ import annotations

from typing import Iterable, Iterator

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

    def mask_of(self, op_indices: Iterable[int]) -> int:
        return sum(1 << self.indices.index(index) for index in op_indices)

    def indices_of(self, mask: int) -> frozenset[int]:
        return frozenset(i for p, i in enumerate(self.indices) if mask >> p & 1)


def project(history: BehavioralHistory, kept_ops: frozenset[int]) -> BehavioralHistory:
    """The subhistory keeping all non-operation entries and ``kept_ops``."""
    return history.subhistory(kept_ops)


def is_closed_subhistory(
    history: BehavioralHistory,
    relation: DependencyRelation,
    kept_ops: frozenset[int],
) -> bool:
    """Is the projection onto ``kept_ops`` closed under ``relation``?"""
    masks = OpMasks(history, relation)
    return masks.is_closed(masks.mask_of(kept_ops))


def closed_subhistories(
    history: BehavioralHistory,
    relation: DependencyRelation,
    required_ops: frozenset[int] = frozenset(),
    *,
    proper_only: bool = False,
) -> Iterator[tuple[frozenset[int], BehavioralHistory]]:
    """Yield every closed subhistory containing the ``required_ops`` entries.

    Yields ``(kept_indices, subhistory)`` pairs.  ``required_ops`` are
    entry indices into ``history`` that must be kept (Definition 2
    requires the view for an invocation to contain every event it depends
    on).  With ``proper_only`` the full history itself is skipped.

    The remaining optional entries are toggled in all combinations that
    preserve closure.  At kernel scale (≤ 6 operation entries) plain
    subset enumeration is exact and fast.
    """
    masks = OpMasks(history, relation)
    for kept in masks.closed(masks.mask_of(required_ops), proper_only=proper_only):
        kept_ops = masks.indices_of(kept)
        yield kept_ops, project(history, kept_ops)


def dependent_op_indices(
    history: BehavioralHistory,
    relation: DependencyRelation,
    invocation,
) -> frozenset[int]:
    """Indices of the (non-aborted) entries of ``history`` that ``invocation`` depends on."""
    masks = OpMasks(history, relation)
    return masks.indices_of(masks.depended_on(invocation))
