"""Semantics and dependency-structure tests for the extended type library."""

import pytest

from repro.dependency.dynamic_dep import minimal_dynamic_dependency
from repro.dependency.static_dep import minimal_static_dependency
from repro.errors import SpecificationError
from repro.histories.events import Invocation, event, ok, signal
from repro.spec.legality import LegalityOracle
from repro.types import Mutex, PriorityQueue, Sequencer
from tests.oracles import commute


class TestPriorityQueueSemantics:
    @pytest.fixture(scope="class")
    def oracle(self):
        return LegalityOracle(PriorityQueue())

    def test_highest_priority_first(self, oracle):
        history = (
            event("Enq", ("a", 1)),
            event("Enq", ("a", 2)),
            event("Deq", (), ok("a", 2)),
            event("Deq", (), ok("a", 1)),
        )
        assert oracle.is_legal(history)

    def test_fifo_among_equal_priorities(self):
        pq = PriorityQueue(items=("a", "b"), priorities=(1,))
        oracle = LegalityOracle(pq)
        history = (
            event("Enq", ("a", 1)),
            event("Enq", ("b", 1)),
            event("Deq", (), ok("a", 1)),
        )
        assert oracle.is_legal(history)
        wrong = history[:2] + (event("Deq", (), ok("b", 1)),)
        assert not oracle.is_legal(wrong)

    def test_empty_signal(self, oracle):
        assert oracle.is_legal((event("Deq", (), signal("Empty")),))

    def test_unknown_operation(self):
        with pytest.raises(SpecificationError):
            PriorityQueue().apply((), Invocation("Peek"))


class TestPriorityQueueDependencies:
    def test_low_priority_enqueue_commutes_with_high_dequeue(self):
        """Enqueuing below an already-dequeuable priority never
        invalidates that dequeue — the typed refinement r/w misses."""
        pq = PriorityQueue(items=("a",), priorities=(1, 2))
        low = event("Enq", ("a", 1))
        high_deq = event("Deq", (), ok("a", 2))
        assert commute(pq, low, high_deq, 3)

    def test_high_priority_enqueue_conflicts_with_low_dequeue(self):
        pq = PriorityQueue(items=("a",), priorities=(1, 2))
        high = event("Enq", ("a", 2))
        low_deq = event("Deq", (), ok("a", 1))
        assert not commute(pq, high, low_deq, 3)

    def test_static_relation_is_priority_sensitive(self):
        pq = PriorityQueue(items=("a",), priorities=(1, 2))
        relation = minimal_static_dependency(pq, 3)
        enq_low = Invocation("Enq", ("a", 1))
        enq_high = Invocation("Enq", ("a", 2))
        deq_high = event("Deq", (), ok("a", 2))
        # A later low-priority enqueue can never invalidate a dequeue
        # that returned priority 2; a high-priority one can.
        assert not relation.depends(enq_low, deq_high)
        assert relation.depends(enq_high, event("Deq", (), ok("a", 1)))


class TestMutex:
    @pytest.fixture(scope="class")
    def oracle(self):
        return LegalityOracle(Mutex())

    def test_acquire_release_cycle(self, oracle):
        history = (
            event("Acquire"),
            event("Release"),
            event("Acquire"),
        )
        assert oracle.is_legal(history)

    def test_double_acquire_busy(self, oracle):
        history = (event("Acquire"), event("Acquire", (), signal("Busy")))
        assert oracle.is_legal(history)
        assert not oracle.is_legal((event("Acquire"), event("Acquire")))

    def test_release_unheld_signals(self, oracle):
        assert oracle.is_legal((event("Release", (), signal("NotHeld")),))

    def test_same_operation_events_never_commute(self):
        mutex = Mutex()
        acquire, release = event("Acquire"), event("Release")
        assert not commute(mutex, acquire, acquire, 3)
        assert not commute(mutex, release, release, 3)

    def test_acquire_release_commute_vacuously(self):
        # Acquire;Ok is enabled only when free, Release;Ok only when
        # held: never both, so Definition 8 holds vacuously — an example
        # of commutativity through mutual exclusion of enabling states.
        mutex = Mutex()
        assert commute(mutex, event("Acquire"), event("Release"), 3)

    def test_dynamic_relation_couples_same_operations(self):
        mutex = Mutex()
        relation = minimal_dynamic_dependency(mutex, 3)
        assert relation.depends(Invocation("Acquire"), event("Acquire"))
        assert relation.depends(Invocation("Release"), event("Release"))
        # Busy/NotHeld responses do conflict across operations:
        # a Release;Ok invalidates a concurrent Acquire;Busy.
        assert relation.depends(
            Invocation("Acquire"), event("Release")
        ) or relation.depends(Invocation("Release"), event("Acquire"))


class TestSequencer:
    @pytest.fixture(scope="class")
    def oracle(self):
        return LegalityOracle(Sequencer())

    def test_monotone_unique_tickets(self, oracle):
        history = (
            event("Next", (), ok(1)),
            event("Next", (), ok(2)),
            event("Next", (), ok(3)),
        )
        assert oracle.is_legal(history)
        assert not oracle.is_legal(
            (event("Next", (), ok(1)), event("Next", (), ok(1)))
        )

    def test_next_never_commutes_with_itself(self):
        sequencer = Sequencer()
        assert not commute(
            sequencer, event("Next", (), ok(1)), event("Next", (), ok(1)), 3
        )

    def test_static_relation_couples_all_nexts(self):
        sequencer = Sequencer()
        relation = minimal_static_dependency(sequencer, 3)
        assert relation.depends(Invocation("Next"), event("Next", (), ok(1)))
