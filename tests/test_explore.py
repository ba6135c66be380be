"""Unit tests for the bounded behavioral-history enumerator."""

import pytest

from repro.atomicity.explore import (
    ExplorationBounds,
    behavioral_histories,
    multi_property_histories,
)
from repro.atomicity.properties import DynamicAtomicity, HybridAtomicity, StaticAtomicity
from repro.core.theorems import FLAGSET_EVENTS, _prom_events
from repro.histories.behavioral import Begin, Op
from repro.histories.events import event
from repro.spec.legality import LegalityOracle
from repro.types import PROM, FlagSet, Queue, Register
from tests.oracles import reference_property_histories


class TestEnumeration:
    def test_all_yielded_histories_admitted(self, queue, queue_oracle):
        prop = HybridAtomicity(queue, queue_oracle)
        bounds = ExplorationBounds(max_ops=2, max_actions=2)
        for history in behavioral_histories(prop, bounds):
            assert prop.admits(history)

    def test_begins_at_front(self, queue, queue_oracle):
        prop = HybridAtomicity(queue, queue_oracle)
        bounds = ExplorationBounds(max_ops=2, max_actions=2)
        for history in behavioral_histories(prop, bounds):
            assert isinstance(history[0], Begin)
            assert isinstance(history[1], Begin)

    def test_op_bound_respected(self, queue, queue_oracle):
        prop = HybridAtomicity(queue, queue_oracle)
        bounds = ExplorationBounds(max_ops=2, max_actions=2)
        for history in behavioral_histories(prop, bounds):
            assert len(history.ops()) <= 2

    def test_canonical_first_op_order(self, queue, queue_oracle):
        prop = HybridAtomicity(queue, queue_oracle)
        bounds = ExplorationBounds(max_ops=3, max_actions=3)
        for history in behavioral_histories(prop, bounds):
            first_actor_order = []
            for op in history.ops():
                if op.action not in first_actor_order:
                    first_actor_order.append(op.action)
            assert first_actor_order == sorted(first_actor_order)

    def test_no_duplicates(self, queue, queue_oracle):
        prop = HybridAtomicity(queue, queue_oracle)
        bounds = ExplorationBounds(max_ops=2, max_actions=2)
        histories = list(behavioral_histories(prop, bounds))
        assert len(histories) == len(set(histories))

    def test_explicit_event_alphabet_restricts_search(self, queue, queue_oracle):
        prop = HybridAtomicity(queue, queue_oracle)
        only_enq = ExplorationBounds(
            max_ops=2, max_actions=2, events=(event("Enq", ("a",)),)
        )
        for history in behavioral_histories(prop, only_enq):
            for op in history.ops():
                assert op.event == event("Enq", ("a",))

    def test_paper_counterexample_shape_reachable(self, register):
        # The enumerator must reach histories with ops after commits
        # (commit entries interleaved), which Theorem 5-style witnesses need.
        oracle = LegalityOracle(register)
        prop = StaticAtomicity(register, oracle)
        bounds = ExplorationBounds(max_ops=2, max_actions=2)
        found = False
        for history in behavioral_histories(prop, bounds):
            committed_seen = False
            for entry in history:
                if entry.__class__.__name__ == "Commit":
                    committed_seen = True
                if isinstance(entry, Op) and committed_seen:
                    found = True
        assert found

    def test_static_universe_smaller_than_or_equal_union(self, queue, queue_oracle):
        static = StaticAtomicity(queue, queue_oracle)
        hybrid = HybridAtomicity(queue, queue_oracle)
        bounds = ExplorationBounds(max_ops=2, max_actions=2)
        static_count = sum(1 for _ in behavioral_histories(static, bounds))
        hybrid_count = sum(1 for _ in behavioral_histories(hybrid, bounds))
        assert static_count > 0 and hybrid_count > 0


#: name → (data type, property kinds, bounds): the universes the theorem
#: battery's arenas enumerate, and Figure 1-1's three-property one.
THEOREM_UNIVERSES = {
    "thm5-hybrid": (
        PROM(), (HybridAtomicity,), dict(max_ops=3, max_actions=4, events=_prom_events())
    ),
    "thm5-static": (
        PROM(), (StaticAtomicity,), dict(max_ops=3, max_actions=4, events=_prom_events())
    ),
    "thm6-static": (Queue(), (StaticAtomicity,), dict(max_ops=3, max_actions=3)),
    "flagset-hybrid": (
        FlagSet(), (HybridAtomicity,), dict(max_ops=4, max_actions=2, events=FLAGSET_EVENTS)
    ),
    "figure-1-1": (
        Queue(),
        (StaticAtomicity, HybridAtomicity, DynamicAtomicity),
        dict(max_ops=3, max_actions=2),
    ),
    "hybrid-dynamic-aborts": (
        Queue(),
        (HybridAtomicity, DynamicAtomicity),
        dict(max_ops=2, max_actions=3, include_aborts=True),
    ),
}


@pytest.mark.parametrize("name", THEOREM_UNIVERSES)
def test_stepping_nodes_yields_what_admits_per_candidate_yields(name):
    """The node-carrying search against the reference that builds every
    candidate and asks ``admits`` from the root: same ``(history, flags)``
    sequence, each admitting property's flag a node, and that node the
    one ``decided`` finds for the history in the property's own trie."""
    datatype, kinds, bounds = THEOREM_UNIVERSES[name]
    bounds = ExplorationBounds(**bounds)
    oracle = LegalityOracle(datatype)
    expected = list(
        reference_property_histories([kind(datatype, oracle) for kind in kinds], bounds)
    )
    stepped = [kind(datatype, oracle) for kind in kinds]
    yielded = list(multi_property_histories(stepped, bounds))
    assert [
        (history, tuple(node is not None for node in nodes)) for history, nodes in yielded
    ] == expected
    assert all(
        prop.decided(history) is node
        for history, nodes in yielded[:: max(1, len(yielded) // 500)]
        for prop, node in zip(stepped, nodes)
    )
