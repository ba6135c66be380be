"""Tests for the Theorem 6 and Theorem 10 searches across data types."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compute.artifacts import default_warm_plan, derive_artifacts
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
from repro.spec.enumerate import alphabets, event_alphabet, legal_serial_histories
from repro.spec.legality import LegalityOracle
from repro.types import (
    PROM,
    Account,
    Bag,
    Counter,
    Directory,
    DoubleBuffer,
    FlagSet,
    Mutex,
    Queue,
    Register,
    standard_types,
)

from tests.helpers import CountingRegister, HiddenCoin, TableType


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


def two_pass_alphabets(datatype, depth):
    """The alphabets as defined: events of the histories of at most
    ``depth`` events, responses in every state such a history reaches."""
    oracle = LegalityOracle(datatype)
    events = set()
    responses = {inv: set() for inv in datatype.invocations()}
    for history in legal_serial_histories(datatype, depth, oracle):
        events.update(history)
        for inv in responses:
            responses[inv].update(oracle.responses(history, inv))
    return (
        tuple(sorted(events, key=str)),
        {inv: tuple(sorted(found, key=str)) for inv, found in responses.items()},
    )


def per_pair_table(datatype, events, max_events):
    """Definition 8 asked pair by pair, each a walk of the history tree."""
    oracle = LegalityOracle(datatype)
    table = {}
    for i, first in enumerate(events):
        for second in events[i:]:
            verdict = commute(datatype, first, second, max_events, oracle)
            table[first, second] = table[second, first] = verdict
    return table


def assert_merged_walks_match_the_definitions(datatype, max_events, events=None):
    """The three derivations against their history-tree definitions."""
    if events is None:
        events, responses = alphabets(datatype, max_events + 2)
        assert (events, responses) == two_pass_alphabets(datatype, max_events + 2)
    searched = minimal_static_dependency(datatype, max_events, events=events)
    assert searched.pairs == literal_theorem_6(datatype, max_events, events).pairs
    table = commutativity_table(datatype, max_events, events=events)
    assert table == per_pair_table(datatype, events, max_events)


#: No catalogue type has a frontier of more than one state or overrides
#: ``canonical``; these two do, one each.
MERGING_TYPES = (HiddenCoin(), CountingRegister())


def _literal_bounds(datatype):
    """Bounds at which the literal Theorem 6 answers within a second or two."""
    if isinstance(datatype, Directory):
        return (1, 2)
    if isinstance(datatype, (Counter, Register, Mutex)):
        return (1, 2, 3, 4)  # small cyclic alphabets: a bound past the catalogue's
    return (1, 2, 3)


DIFFERENTIAL_CASES = [
    pytest.param(datatype, bound, id=f"{datatype.name}@{bound}")
    for datatype in (*standard_types(), *MERGING_TYPES)
    for bound in _literal_bounds(datatype)
]

#: (ii) A three-state automaton where the pair ``(A, C)`` that witnesses
#: ``b() ≥ a();Ok(1)`` is first met with no event left and met again, from
#: a shallower ``F1``, with one.
PAIR_REVISIT_TRAP = {
    (0, "a"): ((1, 1),), (0, "b"): ((1, 2),),
    (1, "a"): ((0, 0),), (1, "b"): ((1, 2),),
    (2, "a"): ((1, 2),), (2, "b"): ((1, 0),),
}  # fmt: skip

#: (iii) One where the same four frontiers are asked for a witness with
#: fewer events left before they are asked with more (``b() ≥ b();Ok(1)``).
MEMO_LENGTH_TRAP = {
    (0, "a"): ((1, 2),), (0, "b"): ((1, 1),), (0, "c"): ((0, 0),),
    (1, "a"): ((0, 1),), (1, "b"): ((1, 2),), (1, "c"): ((0, 0),),
    (2, "a"): ((0, 0),), (2, "b"): ((1, 1),), (2, "c"): ((0, 1),),
}  # fmt: skip


@st.composite
def automata(draw):
    """Random total automata: 2–4 states, 2–3 operations, responses 0/1,
    now and then two outcomes for one ``(state, op)``."""
    states = range(draw(st.integers(2, 4)))
    ops = "abc"[: draw(st.integers(2, 3))]
    outcomes = st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from(states)), min_size=1, max_size=2
    )
    return TableType(
        {(state, op): tuple(draw(outcomes)) for state in states for op in ops}
    )


class TestMergedWalksMatchTheDefinitions:
    """Alphabets, Theorem 6 and Definition 8 walk merged frontiers; the
    definitions quantify over histories.  Same answers, pair for pair.

    Three ways a merged walk goes wrong without failing on the catalogue's
    default alphabets, each named at the test that closes it:

    (i) history steps (``h1``, ``h2``, ``h3``, Definition 8's ``h``) range
        over the *generator* alphabet, only the inserted ``x``, ``y`` over
        ``events`` — a restricted ``events`` must not shrink the histories;
    (ii) a frontier, or a pair ``(A, C)``, met again with more events left
        has to be expanded again (or be met first where it has the most);
    (iii) a memoized "some ``h3`` witnesses it" is only valid for the length
        of ``h3`` it was asked with.
    """

    @pytest.mark.parametrize("datatype,max_events", DIFFERENTIAL_CASES)
    def test_default_alphabet(self, datatype, max_events):
        assert_merged_walks_match_the_definitions(datatype, max_events)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_sub_alphabets(self, data):
        datatype = data.draw(st.sampled_from((*standard_types(), *MERGING_TYPES)))
        max_events = data.draw(st.sampled_from(_literal_bounds(datatype)[:3]))
        full = event_alphabet(datatype, max_events + 2)
        dropped = data.draw(st.sampled_from((None, *sorted(datatype.operations()))))
        size = len(full)
        kept = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        events = tuple(
            ev for ev, keep in zip(full, kept) if keep and ev.inv.op != dropped
        )
        assert_merged_walks_match_the_definitions(datatype, max_events, events)

    @given(automata(), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_random_automata(self, datatype, max_events):
        assert_merged_walks_match_the_definitions(datatype, max_events)

    def test_trap_i_histories_use_events_outside_a_restricted_alphabet(self):
        write_y, read_x = event("Write", ("y",)), event("Read", (), ok("x"))
        # Witness Write(x) · [Write(y)] · Seal · [Read;Ok(x)]: neither
        # Write(x) nor Seal is in ``events``.
        searched = minimal_static_dependency(PROM(), 3, events=(write_y, read_x))
        assert searched.pairs == {(read_x.inv, write_y), (write_y.inv, read_x)}
        assert_merged_walks_match_the_definitions(PROM(), 3, (write_y, read_x))
        # Definition 8 likewise: Deq;Ok(a) refutes itself only after an Enq(a).
        deq_a = event("Deq", (), ok("a"))
        assert commutativity_table(Queue(), 3, events=(deq_a,)) == {
            (deq_a, deq_a): False
        }

    @pytest.mark.parametrize("max_events", [1, 2, 3, 4])
    def test_trap_ii_a_pair_met_again_with_more_events_left(self, max_events):
        # PROM@2 is the frontier half: (y, unsealed) is met by
        # Write(x)·Write(y) before Write(y) — see also
        # test_legality.TestMergedFrontiers.  The pair half needs this one:
        # a pair walk that remembers pairs without their budget (a plain
        # visited set, a memo keyed on the pair) loses ``b() ≥ a();Ok(1)``
        # at bound 2, and on the catalogue nothing below FlagSet@3.
        assert_merged_walks_match_the_definitions(
            TableType(PAIR_REVISIT_TRAP), max_events
        )

    @pytest.mark.parametrize("max_events", [1, 2, 3, 4])
    def test_trap_iii_the_witness_memo_carries_the_length_left(self, max_events):
        # Keyed on the four frontiers alone the memo answers "no h3" from
        # a shorter budget and loses ``b() ≥ b();Ok(1)`` at bound 2.
        assert_merged_walks_match_the_definitions(
            TableType(MEMO_LENGTH_TRAP), max_events
        )

    def test_set_valued_frontiers_reach_the_relations(self):
        toss, peek = Invocation("Toss"), Invocation("Peek")
        peeks = {event("Peek", (), ok(side)) for side in ("heads", "tails")}
        # Statically only the Peeks see each other (after a Toss either
        # answer is legal, two different ones in a row are not): an
        # inserted Toss widens the frontier and invalidates nothing.
        static = minimal_static_dependency(HiddenCoin(), 3)
        assert static.pairs == {(peek, seen) for seen in peeks}
        # Dynamically Toss and Peek do not commute: {heads, tails} one
        # way round, the peeked side the other.
        dynamic = minimal_dynamic_dependency(HiddenCoin(), 3)
        assert dynamic.pairs == static.pairs | {(peek, event("Toss"))} | {
            (toss, seen) for seen in peeks
        }

    def test_a_stripped_counter_changes_nothing(self):
        for derive in (minimal_static_dependency, minimal_dynamic_dependency):
            assert derive(CountingRegister(), 3) == derive(Register(), 3)


def _projection(relation):
    """A relation with the values dropped: which operation must see which
    operation's events, by termination kind."""
    return {(inv.op, ev.inv.op, ev.res.kind) for inv, ev in relation.pairs}


def _counts(pairs):
    """The running values (counts, balances, sizes, tickets) in ``pairs``."""
    return {
        value
        for _inv, ev in pairs
        for value in ev.res.values
        if type(value) is int
    }


class TestBoundConvergence:
    """Every catalogue row at its bound ``b`` against ``b + 1`` and ``b + 2``.

    The relations are exhaustive *up to the bound*; what the reports and
    the runtime consume is the claim that the bound was enough.  Cheap to
    check now that a derivation costs what the type's states cost.
    """

    #: Types whose events carry a running value: each bound adds the
    #: instances of the same schema pairs at the next value(s).
    VALUE_INDEXED = {"Counter", "Account", "Log", "Sequencer"}

    #: FlagSet at the catalogue's bound 3 is *not* converged: ``Close``
    #: answers ``Ok(True)`` only after Open·Shift(1)·Shift(2)·Shift(3), so
    #: the three pairs that need a fifth event are missing from both
    #: minimal relations (19 pairs; 22 from bound 4 on).  Pinned so the
    #: change that raises the catalogue bound has a row to flip.
    FLAGSET_MISSING_AT_3 = {
        (Invocation("Shift", (n,)), event("Close", (), ok(True))) for n in (1, 2, 3)
    }

    @pytest.mark.parametrize(
        "datatype,bound",
        [pytest.param(d, b, id=f"{d.name}@{b}") for d, b in default_warm_plan()],
    )
    def test_warm_plan_row(self, datatype, bound):
        at_bound, *deeper = (
            derive_artifacts(datatype, b) for b in (bound, bound + 1, bound + 2)
        )
        previous = at_bound
        for artifacts in deeper:
            for name in ("static", "dynamic"):
                before, after = getattr(previous, name), getattr(artifacts, name)
                assert _projection(after) == _projection(before)
                grown = after.pairs - before.pairs
                assert before.pairs <= after.pairs
                if datatype.name in self.VALUE_INDEXED:
                    known = max(_counts(before.pairs))
                    assert grown and all(
                        min(_counts({pair}), default=known) > known for pair in grown
                    )
                elif (datatype.name, previous.bound) == ("FlagSet", 3):
                    assert grown == self.FLAGSET_MISSING_AT_3
                else:
                    assert not grown
            if datatype.name not in self.VALUE_INDEXED:
                assert artifacts.events == previous.events
            previous = artifacts

    def test_flagset_is_converged_from_bound_4(self):
        relations = [
            (a.static.pairs, a.dynamic.pairs)
            for a in (derive_artifacts(FlagSet(), bound) for bound in (4, 5, 6))
        ]
        assert relations[0] == relations[1] == relations[2]
        assert [len(pairs) for pairs in relations[0]] == [22, 22]
        assert self.FLAGSET_MISSING_AT_3 <= relations[0][0] & relations[0][1]


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
