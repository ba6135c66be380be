"""Tests for the Theorem 6 and Theorem 10 searches across data types."""

import pytest

from repro.dependency import known
from repro.dependency.dynamic_dep import (
    commutativity_table,
    commute,
    minimal_dynamic_dependency,
)
from repro.compute.codec import canonical_json, encode_relation
from repro.core.theorems import _prom_events
from repro.dependency.relation import DependencyRelation, SchemaPair
from repro.dependency.static_dep import minimal_static_dependency
from repro.histories.events import Invocation, event, ok, signal
from repro.spec.enumerate import event_alphabet, legal_serial_histories
from repro.spec.legality import LegalityOracle
from repro.types import (
    PROM,
    Account,
    Bag,
    Counter,
    DoubleBuffer,
    FlagSet,
    Queue,
    Register,
)


def _type_name(datatype):
    return datatype.name


def _encoded(relation):
    """The bytes of a relation inside ``TypeArtifacts.canonical_text``."""
    return canonical_json(encode_relation(relation))


class TestQueueRelations:
    def test_static_matches_paper(self, queue, queue_oracle):
        searched = minimal_static_dependency(queue, 4, queue_oracle)
        assert searched == known.ground(queue, known.QUEUE_STATIC, 6, queue_oracle)

    def test_dynamic_matches_paper(self, queue, queue_oracle):
        searched = minimal_dynamic_dependency(queue, 4, queue_oracle)
        assert searched == known.ground(queue, known.QUEUE_DYNAMIC, 6, queue_oracle)

    def test_static_and_dynamic_incomparable(self, queue, queue_oracle):
        static = minimal_static_dependency(queue, 4, queue_oracle)
        dynamic = minimal_dynamic_dependency(queue, 4, queue_oracle)
        assert not static <= dynamic
        assert not dynamic <= static

    def test_bound_monotonicity(self, queue, queue_oracle):
        small = minimal_static_dependency(queue, 3, queue_oracle)
        large = minimal_static_dependency(queue, 4, queue_oracle)
        assert small <= large

    @pytest.mark.parametrize("datatype", [PROM(), FlagSet()], ids=_type_name)
    def test_bound_monotonicity_beyond_queue(self, datatype):
        oracle = LegalityOracle(datatype)
        small = minimal_static_dependency(datatype, 3, oracle)
        large = minimal_static_dependency(datatype, 4, oracle)
        assert small <= large


def _condition_one(oracle, h1, h2, h3, inv_event, interfering):
    """A later ``e`` invalidates the response: clause 1 of Theorem 6."""
    return (
        oracle.is_legal(h1 + (inv_event,) + h2 + h3)
        and oracle.is_legal(h1 + h2 + (interfering,) + h3)
        and not oracle.is_legal(h1 + (inv_event,) + h2 + (interfering,) + h3)
    )


def _condition_two(oracle, h1, h2, h3, inv_event, interfering):
    """A missing earlier ``e`` makes the response wrong: clause 2 of Theorem 6."""
    return (
        oracle.is_legal(h1 + (interfering,) + h2 + h3)
        and oracle.is_legal(h1 + h2 + (inv_event,) + h3)
        and not oracle.is_legal(h1 + (interfering,) + h2 + (inv_event,) + h3)
    )


def literal_theorem_6(datatype, max_events, events=None):
    """Theorem 6 as the paper states it: two clauses, six root replays per
    ``(split, inv_event, interfering)``, nothing shared or hoisted.

    The executable statement of the theorem, and the oracle
    ``minimal_static_dependency`` (which asks one hoisted query for both
    clauses) must match pair for pair.
    """
    oracle = LegalityOracle(datatype)
    if events is None:
        events = event_alphabet(datatype, max_events + 2, oracle)
    pairs = set()
    for history in legal_serial_histories(datatype, max_events, oracle):
        for i in range(len(history) + 1):
            for j in range(i, len(history) + 1):
                h1, h2, h3 = history[:i], history[i:j], history[j:]
                for inv_event in events:
                    for interfering in events:
                        if _condition_one(
                            oracle, h1, h2, h3, inv_event, interfering
                        ) or _condition_two(oracle, h1, h2, h3, inv_event, interfering):
                            pairs.add((inv_event.inv, interfering))
    return DependencyRelation(pairs)


ALL_TYPES = [
    Queue(),
    PROM(),
    FlagSet(),
    Account(),
    Bag(),
    Register(),
    Counter(),
    DoubleBuffer(),
]


class TestStaticSearchMatchesLiteralTheorem6:
    """The shared-replay search equals the literal transcription."""

    @pytest.mark.parametrize("max_events", [2, 3])
    @pytest.mark.parametrize("datatype", ALL_TYPES, ids=_type_name)
    def test_default_alphabet(self, datatype, max_events):
        searched = minimal_static_dependency(datatype, max_events)
        literal = literal_theorem_6(datatype, max_events)
        assert len(literal) > 0
        assert searched.pairs == literal.pairs
        assert _encoded(searched) == _encoded(literal)

    @pytest.mark.parametrize("max_events", [2, 3])
    @pytest.mark.parametrize("datatype", ALL_TYPES, ids=_type_name)
    def test_restricted_alphabet(self, datatype, max_events):
        # Insertions may now leave the alphabet the histories are drawn
        # from; the depth-1 alphabet is the smallest non-trivial one.
        events = event_alphabet(datatype, 1)
        searched = minimal_static_dependency(datatype, max_events, events=events)
        literal = literal_theorem_6(datatype, max_events, events)
        assert searched.pairs == literal.pairs

    @pytest.mark.parametrize("max_events", [2, 3])
    def test_prom_theorem_5_alphabet(self, max_events):
        events = _prom_events()
        searched = minimal_static_dependency(PROM(), max_events, events=events)
        literal = literal_theorem_6(PROM(), max_events, events)
        assert len(literal) > 0
        assert searched.pairs == literal.pairs
        assert _encoded(searched) == _encoded(literal)


class TestCommute:
    def test_same_value_enqueues_commute(self, queue, queue_oracle):
        enq = event("Enq", ("a",))
        assert commute(queue, enq, enq, 3, queue_oracle)

    def test_distinct_enqueues_do_not_commute(self, queue, queue_oracle):
        assert not commute(
            queue, event("Enq", ("a",)), event("Enq", ("b",)), 3, queue_oracle
        )

    def test_enqueue_commutes_with_legal_dequeue(self, queue, queue_oracle):
        # The subtle Theorem 10 consequence: Enq(a) commutes with
        # Deq();Ok(x) because both can only be legal together when the
        # dequeue removes the front, which the enqueue does not change.
        assert commute(
            queue, event("Enq", ("a",)), event("Deq", (), ok("b")), 4, queue_oracle
        )

    def test_enqueue_conflicts_with_empty(self, queue, queue_oracle):
        assert not commute(
            queue,
            event("Enq", ("a",)),
            event("Deq", (), signal("Empty")),
            3,
            queue_oracle,
        )

    def test_table_is_symmetric(self, queue, queue_oracle):
        table = commutativity_table(queue, 3, queue_oracle)
        for (first, second), value in table.items():
            assert table[(second, first)] == value


class TestRegisterRelations:
    """Registers reproduce Gifford's read/write quorum constraints."""

    @pytest.fixture(scope="class")
    def static_relation(self):
        return minimal_static_dependency(Register(), 3)

    def test_reads_depend_on_writes(self, static_relation):
        schemas = {
            (s.inv_op, s.ev_op) for s in static_relation.schema_pairs()
        }
        assert ("Read", "Write") in schemas

    def test_writes_depend_on_reads_statically(self, static_relation):
        # Static atomicity: a write inserted before a committed read of a
        # different value invalidates it.
        schemas = {
            (s.inv_op, s.ev_op) for s in static_relation.schema_pairs()
        }
        assert ("Write", "Read") in schemas

    def test_dynamic_blind_writes_conflict(self):
        dynamic = minimal_dynamic_dependency(Register(), 3)
        schemas = {(s.inv_op, s.ev_op) for s in dynamic.schema_pairs()}
        assert ("Write", "Write") in schemas  # writes don't commute

    def test_static_writes_do_not_mutually_depend(self, static_relation):
        # w-w pairs are absent statically: a write never invalidates
        # another write's (void) response; only reads observe them.
        schemas = {
            (s.inv_op, s.ev_op) for s in static_relation.schema_pairs()
        }
        assert ("Write", "Write") not in schemas


class TestCounterRelations:
    def test_increments_commute(self):
        counter = Counter()
        assert commute(counter, event("Inc"), event("Inc"), 3)

    def test_inc_dec_do_not_commute_at_zero_boundary(self):
        counter = Counter()
        assert not commute(
            counter, event("Inc"), event("Dec", (), signal("Underflow")), 3
        )

    def test_reads_conflict_with_increments(self):
        counter = Counter()
        dynamic = minimal_dynamic_dependency(counter, 3)
        schemas = {(s.inv_op, s.ev_op) for s in dynamic.schema_pairs()}
        assert ("Read", "Inc") in schemas

    def test_typed_advantage_inc_needs_no_inc_view(self):
        # The type-specific win: an increment's view need not contain
        # other increments (they commute), unlike a read/write register.
        counter = Counter()
        dynamic = minimal_dynamic_dependency(counter, 3)
        inc = Invocation("Inc")
        assert not dynamic.depends(inc, event("Inc"))


class TestBagRelations:
    def test_distinct_item_inserts_commute(self):
        bag = Bag()
        assert commute(bag, event("Insert", ("x",)), event("Insert", ("y",)), 3)

    def test_insert_remove_same_item_conflict(self):
        bag = Bag()
        assert not commute(
            bag, event("Insert", ("x",)), event("Remove", ("x",), signal("Absent")), 3
        )


class TestAccountRelations:
    def test_deposits_commute(self):
        account = Account()
        assert commute(account, event("Deposit", (1,)), event("Deposit", (2,)), 3)

    def test_deposit_overdraft_conflict(self):
        account = Account()
        assert not commute(
            account,
            event("Deposit", (1,)),
            event("Withdraw", (1,), signal("Overdraft")),
            3,
        )

    def test_successful_withdrawals_commute_away_from_boundary(self):
        account = Account()
        # Two Withdraw(1);Ok() events: both legal only when balance ≥ 1;
        # when both orders are legal the final state matches... they fail
        # to commute because h·e legal and h·e' legal needs balance ≥ 1,
        # but h·e·e' needs ≥ 2 — check the search's verdict directly.
        verdict = commute(
            account, event("Withdraw", (1,)), event("Withdraw", (1,)), 3
        )
        assert verdict is False
