"""Membership checkers for ``Static(T)``, ``Hybrid(T)``, and ``Dynamic(T)``.

For a serial specification ``T``, the paper works with the largest
prefix-closed, *on-line* behavioral specification that is static
(respectively hybrid, strong dynamic) atomic.  Membership of a behavioral
history ``H`` in such a specification reduces to:

    for every prefix ``P`` of ``H`` and every way of committing a subset
    of ``P``'s active actions, the resulting history satisfies the bare
    property.

The subset-committing step is exactly what the paper calls a *static*
(resp. *hybrid*, *dynamic*) *serialization* of ``P``, so the checkers
below iterate those serializations (see
:mod:`repro.histories.serialization`) and test legality — plus, for
strong dynamic atomicity (Definition 7), mutual equivalence of all
serializations arising from the same committed set.

Checkers exploit prefix closure: a history is admitted iff its longest
proper prefix is admitted and the full history passes the property
check.  They pay for that check only where it can say something new —
each property names what its check reads of a history
(:meth:`LocalAtomicityProperty.admission_key`), verdicts are memoized on
that, and an appended ``Begin``/``Commit``/``Abort`` is never checked.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import permutations
from typing import Hashable

from repro.histories.behavioral import BehavioralHistory, Op
from repro.histories.events import SerialHistory
from repro.histories.serialization import (
    action_subsets,
    hybrid_serializations,
    precedes_pairs,
    relevant_active,
    serialize,
    static_serializations,
    linear_extensions,
)
from repro.spec.datatype import SerialDataType
from repro.spec.legality import LegalityOracle

_UNDECIDED = object()


class LocalAtomicityProperty(ABC):
    """A local atomicity property, bound to one data type.

    Instances answer ``admits(H)``: is ``H`` a member of the largest
    prefix-closed on-line behavioral specification for the property?
    """

    #: Short name used in reports ("static", "hybrid", "dynamic").
    name: str = "abstract"
    #: Whether membership depends on the order of Begin events.  When it
    #: does, action labels are *not* interchangeable (their begin
    #: positions differ), so enumeration symmetry reductions that assume
    #: relabeling-invariance must be disabled.
    begin_order_sensitive: bool = False

    def __init__(self, datatype: SerialDataType, oracle: LegalityOracle | None = None):
        self._dt = datatype
        self.oracle = oracle or LegalityOracle(datatype)
        #: ``check_history`` verdicts, by :meth:`admission_key`.
        self._cache: dict[Hashable, bool] = {}
        #: The prefixes decided so far, a trie over entries: an admitted
        #: prefix is the dict of its decided extensions, a rejected one
        #: (and with it, by prefix closure, all it extends to) ``None``.
        self._decided: dict = {}

    @property
    def datatype(self) -> SerialDataType:
        return self._dt

    @abstractmethod
    def check_history(self, history: BehavioralHistory) -> bool:
        """Does ``history`` itself (not its prefixes) satisfy the property?"""

    @abstractmethod
    def admission_key(self, history: BehavioralHistory) -> Hashable:
        """All that :meth:`check_history` reads of ``history``: histories
        with equal keys have the same serializations, hence one verdict."""

    def admits(self, history: BehavioralHistory) -> bool:
        """Membership in the largest prefix-closed on-line specification.

        Follows ``history`` down the trie of decided prefixes and goes on
        from the longest one, deciding one more entry at a time: a loop
        (a run-length history costs no stack) that validates, hashes and
        checks nothing before that prefix again.

        Only an appended ``Op`` is checked.  For ``x`` a ``Begin``,
        ``Commit`` or ``Abort``, every serialization ``check_history``
        examines for ``H·x`` is one it examined for ``H``, so an admitted
        ``H`` makes ``H·x`` admitted.  ``Begin A`` adds an action without
        events, and such an action shows in no serialization, committed
        or not.  ``Abort A`` leaves the serializations of ``H`` that did
        not commit ``A``.  ``Commit A``, static and hybrid: ``H·x``
        committing a set ``S`` of active actions serializes as ``H``
        committing ``S ∪ {A}`` (hybrid: with ``A`` first in the tail, one
        of the orders ``H`` tries); dynamic: ``precedes`` gains pairs
        only at an ``Op``, so the orders of ``H·x`` for ``S`` are those
        of ``H`` for ``S ∪ {A}``, legal and equivalent as one group.
        """
        node, grown = self._decided, None
        for index, entry in enumerate(history):
            child = node.get(entry, _UNDECIDED)
            if child is _UNDECIDED:
                grown = history.prefix(index + 1) if grown is None else grown.append(entry)
                admitted = True
                if isinstance(entry, Op):
                    key = self.admission_key(grown)
                    admitted = self._cache.get(key)
                    if admitted is None:
                        admitted = self._cache[key] = self.check_history(grown)
                child = node[entry] = {} if admitted else None
            if child is None:
                return False
            node = child
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} for {self._dt.name}>"


class StaticAtomicity(LocalAtomicityProperty):
    """Committed actions serializable in Begin-event order (Definition 3).

    This is the property enforced by timestamp-based mechanisms such as
    Reed's multiversion scheme and the Swallow storage system: each
    action is ordered once and for all when it begins.
    """

    name = "static"
    begin_order_sensitive = True

    def check_history(self, history: BehavioralHistory) -> bool:
        return all(self.oracle.is_legal(s) for s in static_serializations(history))

    def admission_key(self, history: BehavioralHistory) -> Hashable:
        """The events of non-aborted actions in begin order, split where an
        active action starts or ends (odd places: one active action each;
        even: the committed ones between, whom no serialization parts).
        No label: relabelled histories share a verdict."""
        key: list[SerialHistory] = [()]
        for action in history.begin_order:
            events = history.events_of(action)
            if action in history.committed:
                key[-1] += events
            elif events and action in history.active:
                key += events, ()
        return tuple(key)


class HybridAtomicity(LocalAtomicityProperty):
    """Committed actions serializable in Commit-event order (Definition 3).

    This is the property enforced by hybrid mechanisms: actions are
    ordered by commit-time timestamps, with local synchronization (e.g.
    short-term locks) keeping active actions consistent.
    """

    name = "hybrid"

    def check_history(self, history: BehavioralHistory) -> bool:
        return all(self.oracle.is_legal(s) for s in hybrid_serializations(history))

    def admission_key(self, history: BehavioralHistory) -> Hashable:
        """The committed serialization and the bag of active actions'
        events: no label, and no trace of how the active interleaved."""
        runs: dict[SerialHistory, int] = {}
        for action in history.active:
            events = history.events_of(action)
            if events:
                runs[events] = runs.get(events, 0) + 1
        return serialize(history, history.commit_order), frozenset(runs.items())


class DynamicAtomicity(LocalAtomicityProperty):
    """Strong dynamic atomicity (Definition 7).

    A history qualifies when it is serializable in *every* order
    consistent with the partial ``precedes`` order and all such
    serializations are equivalent.  This is the property two-phase
    locking mechanisms (Argus, TABS) enforce: until an action commits,
    its order relative to concurrent actions remains undetermined, so
    every consistent order must work equally well.
    """

    name = "dynamic"

    def admission_key(self, history: BehavioralHistory) -> Hashable:
        """Each committed or active action's events, and ``precedes`` —
        labelled, as that is; blind to interleaving between Commits."""
        events_of = history.events_of
        return (
            tuple((action, events_of(action)) for action in history.commit_order),
            frozenset((a, events_of(a)) for a in relevant_active(history)),
            precedes_pairs(history),
        )

    def check_history(self, history: BehavioralHistory) -> bool:
        pairs = precedes_pairs(history)
        committed = history.committed
        for subset in action_subsets(relevant_active(history)):
            nodes = sorted(committed | set(subset))
            reference: SerialHistory | None = None
            for order in linear_extensions(nodes, pairs):
                serial = serialize(history, order)
                if not self.oracle.is_legal(serial):
                    return False
                if reference is None:
                    reference = serial
                elif not self.oracle.equivalent(reference, serial):
                    return False
        return True


def is_serializable_in_some_order(
    oracle: LegalityOracle, history: BehavioralHistory
) -> bool:
    """Is the committed subhistory serializable in *some* total order?

    This is the bare atomicity requirement of Section 3.1, with no
    constraint tying the order to Begin or Commit events.  It brute-forces
    permutations of committed actions, which is fine at kernel scale.
    """
    committed = sorted(history.committed)
    return any(
        oracle.is_legal(serialize(history, order)) for order in permutations(committed)
    )


def is_atomic(oracle: LegalityOracle, history: BehavioralHistory) -> bool:
    """Alias of :func:`is_serializable_in_some_order` matching the paper's term."""
    return is_serializable_in_some_order(oracle, history)
