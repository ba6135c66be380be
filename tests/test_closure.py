"""Unit tests for closed subhistories (Definition 1)."""

import pytest

from repro.atomicity.explore import ExplorationBounds, behavioral_histories
from repro.atomicity.properties import (
    DynamicAtomicity,
    HybridAtomicity,
    StaticAtomicity,
)
from repro.core.theorems import _prom_events
from repro.dependency.closure import (
    closed_subhistories,
    dependent_op_indices,
    is_closed_subhistory,
    project,
)
from repro.dependency.relation import DependencyRelation, SchemaPair
from repro.histories.behavioral import Abort, Begin, BehavioralHistory, Commit, Op
from repro.histories.events import Invocation, event, ok
from repro.types import PROM, FlagSet, Queue, Register


ENQ_A = event("Enq", ("a",))
ENQ_B = event("Enq", ("b",))
DEQ_A = event("Deq", (), ok("a"))

#: Deq depends on Enq;Ok — a fragment of the Queue static relation.
REL = DependencyRelation.from_schemas(
    [SchemaPair("Deq", "Enq", "Ok")],
    (Invocation("Enq", ("a",)), Invocation("Enq", ("b",)), Invocation("Deq")),
    (ENQ_A, ENQ_B, DEQ_A),
)


@pytest.fixture()
def history():
    """Enq(a) by A, Enq(b) by B, Deq();Ok(a) by C — ops at indices 3,4,5."""
    return BehavioralHistory.build(
        Begin("A"),
        Begin("B"),
        Begin("C"),
        Op(ENQ_A, "A"),
        Op(ENQ_B, "B"),
        Op(DEQ_A, "C"),
    )


class TestProjection:
    def test_project_keeps_non_op_entries(self, history):
        projected = project(history, frozenset({3}))
        assert projected.actions == {"A", "B", "C"}
        assert [op.event for op in projected.ops()] == [ENQ_A]

    def test_project_all_is_identity(self, history):
        assert project(history, frozenset({3, 4, 5})) == history


class TestClosure:
    def test_dropping_undepended_event_is_closed(self, history):
        # Keeping only the enqueues (no Deq kept) is closed.
        assert is_closed_subhistory(history, REL, frozenset({3, 4}))

    def test_keeping_dependent_without_dependency_violates(self, history):
        # Deq kept but Enq(a) dropped: Deq depends on all Enq;Ok events.
        assert not is_closed_subhistory(history, REL, frozenset({4, 5}))
        assert not is_closed_subhistory(history, REL, frozenset({5}))

    def test_full_set_always_closed(self, history):
        assert is_closed_subhistory(history, REL, frozenset({3, 4, 5}))

    def test_aborted_dependencies_may_be_dropped(self):
        history = BehavioralHistory.build(
            Begin("A"),
            Begin("B"),
            Op(ENQ_A, "A"),
            Abort("A"),
            Op(ENQ_B, "B"),
            Op(DEQ_A, "B"),
        )
        # Index 2 is the aborted Enq; dropping it under closure is fine.
        assert is_closed_subhistory(history, REL, frozenset({4, 5}))

    def test_later_events_never_forced(self, history):
        # Closure only forces *earlier* dependencies: keeping Enq(a) alone
        # does not force the later Deq.
        assert is_closed_subhistory(history, REL, frozenset({3}))


class TestEnumeration:
    def test_all_closed_supersets_enumerated(self, history):
        kept_sets = {
            kept for kept, _sub in closed_subhistories(history, REL, frozenset())
        }
        # Deq (index 5) may only appear with both enqueues present.
        assert frozenset({3, 4, 5}) in kept_sets
        assert frozenset({5}) not in kept_sets
        assert frozenset({4, 5}) not in kept_sets
        assert frozenset() in kept_sets

    def test_required_ops_always_included(self, history):
        for kept, _sub in closed_subhistories(history, REL, frozenset({5})):
            assert 5 in kept
            assert {3, 4} <= kept  # closure pulls in both enqueues

    def test_proper_only_excludes_full_history(self, history):
        kept_sets = {
            kept
            for kept, _sub in closed_subhistories(
                history, REL, frozenset(), proper_only=True
            )
        }
        assert frozenset({3, 4, 5}) not in kept_sets

    def test_subhistories_are_wellformed(self, history):
        for _kept, sub in closed_subhistories(history, REL, frozenset()):
            assert sub.actions == history.actions


class TestDependentIndices:
    def test_indices_of_dependencies(self, history):
        deps = dependent_op_indices(history, REL, Invocation("Deq"))
        assert deps == {3, 4}

    def test_aborted_events_not_required(self):
        history = BehavioralHistory.build(
            Begin("A"), Op(ENQ_A, "A"), Abort("A")
        )
        deps = dependent_op_indices(history, REL, Invocation("Deq"))
        assert deps == frozenset()

    def test_unrelated_invocation_requires_nothing(self, history):
        deps = dependent_op_indices(history, REL, Invocation("Enq", ("a",)))
        assert deps == frozenset()


# -- the literal Definition 1, kept as the reference -------------------------
#
# What ``closure.py`` computed before it moved to op-position bitmasks: a
# subset loop over the optional entries, a pairwise violation scan per
# subset.  ``tests/test_verify.py`` builds the literal Definition 2
# search on top of it.


def _op_indices(history):
    return tuple(
        index for index, entry in enumerate(history) if isinstance(entry, Op)
    )


def _violations(history, relation, kept):
    """Does ``kept`` violate closure: a kept entry depends on a dropped earlier one?"""
    aborted = history.aborted
    entries = history.entries
    for index in kept:
        entry = entries[index]
        assert isinstance(entry, Op)
        if entry.action in aborted:
            continue
        for earlier_index in _op_indices(history):
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
    ops = _op_indices(history)
    optional = [index for index in ops if index not in required_ops]
    for bits in range(1 << len(optional)):
        kept = set(required_ops)
        for position, index in enumerate(optional):
            if bits & (1 << position):
                kept.add(index)
        kept_frozen = frozenset(kept)
        if proper_only and len(kept_frozen) == len(ops):
            continue
        if not _violations(history, relation, kept_frozen):
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


#: The FlagSet battery's alphabet: its normal events.
FLAGSET_EVENTS = (
    event("Open"),
    event("Shift", (1,)),
    event("Shift", (2,)),
    event("Shift", (3,)),
    event("Close", (), ok(False)),
    event("Close", (), ok(True)),
)


def probe_relations(invocations, events):
    """The empty relation, the total one, and the total minus each pair."""
    total = DependencyRelation.total(invocations, events)
    return [DependencyRelation(), total, *(total.without(pair) for pair in total)]


def _universe(prop, **bounds):
    bounds = ExplorationBounds(**bounds)
    events = bounds.resolve_events(prop)
    invocations = sorted({ev.inv for ev in events}, key=str)
    return prop, bounds, invocations, probe_relations(invocations, events)


UNIVERSES = {
    "static-register": lambda: _universe(
        StaticAtomicity(Register(items=("x",))), max_ops=3, max_actions=2
    ),
    "hybrid-prom": lambda: _universe(
        HybridAtomicity(PROM()), max_ops=3, max_actions=3, events=_prom_events()
    ),
    "hybrid-flagset": lambda: _universe(
        HybridAtomicity(FlagSet()), max_ops=3, max_actions=2, events=FLAGSET_EVENTS
    ),
    "dynamic-queue": lambda: _universe(
        DynamicAtomicity(Queue()), max_ops=3, max_actions=2, alphabet_depth=2
    ),
    "static-register-aborts": lambda: _universe(
        StaticAtomicity(Register(items=("x",))),
        max_ops=3, max_actions=2, include_aborts=True,
    ),
}


@pytest.mark.parametrize("name", UNIVERSES)
def test_mask_core_agrees_with_the_literal_definition(name):
    """Same ``(kept, subhistory)`` sequence, same order, every relation."""
    prop, bounds, invocations, relations = UNIVERSES[name]()
    histories = list(behavioral_histories(prop, bounds))
    assert any(history.aborted for history in histories) == bounds.include_aborts
    compared = 0
    for history in histories:
        ops = _op_indices(history)
        for relation in relations:
            requirements = {frozenset()}
            for invocation in invocations:
                required = dependent_op_indices(history, relation, invocation)
                assert required == reference_dependent_op_indices(
                    history, relation, invocation
                )
                requirements.add(required)
            for required in requirements:
                for proper_only in (False, True):
                    expected = list(
                        reference_closed_subhistories(
                            history, relation, required, proper_only=proper_only
                        )
                    )
                    assert expected == list(
                        closed_subhistories(
                            history, relation, required, proper_only=proper_only
                        )
                    )
                    compared += len(expected)
            for bits in range(1 << len(ops)):
                kept = frozenset(i for p, i in enumerate(ops) if bits >> p & 1)
                assert is_closed_subhistory(history, relation, kept) == (
                    not _violations(history, relation, kept)
                )
    assert compared > 1000
