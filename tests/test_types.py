"""Semantics tests for every built-in data type.

Each type's serial specification is exercised directly through
``apply`` and via the legality oracle on short histories, including the
paper's own examples (the Section 3.1 Queue history, the PROM and
FlagSet behaviours of Section 4, the DoubleBuffer of Section 5).
"""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpecificationError
from repro.histories.events import Invocation, event, ok, signal
from repro.spec.legality import LegalityOracle
from repro.types import (
    PROM,
    Account,
    Bag,
    Counter,
    Directory,
    DoubleBuffer,
    FlagSet,
    LogObject,
    Queue,
    Register,
    SemiQueue,
    Stack,
)
from repro.types.queue import _SLACK, _Window


class TestQueue:
    def test_paper_serial_history(self, queue_oracle):
        """The exact serial history from Section 3.1."""
        history = (
            event("Enq", ("x",)),
            event("Enq", ("y",)),
            event("Deq", (), ok("x")),
            event("Deq", (), signal("Empty")),
        )
        # The paper's history dequeues x then signals Empty — but y is
        # still queued, so the last event is illegal as written; with
        # Deq();Ok(y) interposed it becomes legal.
        assert not queue_oracle.is_legal(history)
        fixed = history[:3] + (event("Deq", (), ok("y")), history[3])
        assert queue_oracle.is_legal(fixed)

    def test_fifo_order_enforced(self, queue_oracle):
        wrong = (event("Enq", ("x",)), event("Enq", ("y",)), event("Deq", (), ok("y")))
        assert not queue_oracle.is_legal(wrong)

    def test_empty_signal_only_when_empty(self, queue_oracle):
        assert queue_oracle.is_legal((event("Deq", (), signal("Empty")),))
        assert not queue_oracle.is_legal(
            (event("Enq", ("x",)), event("Deq", (), signal("Empty")))
        )

    def test_unknown_operation_rejected(self, queue):
        with pytest.raises(SpecificationError):
            queue.apply((), Invocation("Pop"))

    def test_empty_alphabet_rejected(self):
        with pytest.raises(SpecificationError):
            Queue(items=())

    def test_invocations_cover_alphabet(self, queue):
        assert Invocation("Enq", ("a",)) in queue.invocations()
        assert Invocation("Deq") in queue.invocations()

    @pytest.mark.parametrize(
        "invocation, arity",
        [
            (Invocation("Deq", ("x",)), "Deq takes 0"),
            (Invocation("Enq"), "Enq takes 1"),
            (Invocation("Enq", ("a", "b")), "Enq takes 1"),
        ],
        ids=str,
    )
    def test_wrong_number_of_arguments_rejected(self, queue, invocation, arity):
        with pytest.raises(SpecificationError, match=arity):
            queue.apply(queue.initial_state(), invocation)


#: Enq items for the window properties: ``1`` and ``True`` are equal but
#: must never stand in for each other in a shared store.
_ITEMS = st.sampled_from(["a", "b", 1, True])

#: A step of a branching program: from the state at ``index`` (taken
#: modulo the states made so far), enqueue the item or, for ``None``, dequeue.
_STEPS = st.lists(
    st.tuples(st.integers(min_value=0), st.one_of(st.none(), _ITEMS)),
    max_size=40,
)


def _check_is_its_tuple(state, model):
    """``state`` behaves as the plain tuple ``model`` in every way a tuple can."""
    assert isinstance(state, _Window)
    assert list(state) == list(model)
    assert [type(item) for item in state] == [type(item) for item in model]
    assert len(state) == len(model) and bool(state) == bool(model)
    for position in range(-len(model), len(model)):
        assert state[position] == model[position]
        assert type(state[position]) is type(model[position])
    for position in (len(model), -len(model) - 1):
        with pytest.raises(IndexError):
            state[position]
    for cut in range(-len(model) - 1, len(model) + 2):
        for piece, expected in (
            (state[cut:], model[cut:]),
            (state[:cut], model[:cut]),
            (state[cut : cut + 2], model[cut : cut + 2]),
        ):
            assert isinstance(piece, _Window) and piece == expected
    assert state[::2] == model[::2] and state[::-1] == model[::-1]
    assert state == model and model == state and not state != model
    assert state != model + ("z",) and model + ("z",) != state
    assert hash(state) == hash(model)
    assert repr(state) == repr(model) and str(state) == str(model)
    for copied in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
        assert isinstance(copied, _Window)
        assert repr(copied) == repr(model) and copied == state


class TestQueueWindow:
    """A Queue state is a window over a shared store that is its tuple."""

    @settings(max_examples=80, deadline=None)
    @given(_STEPS)
    def test_every_state_of_a_branching_program_is_its_tuple(self, steps):
        queue = Queue()
        states, models = [queue.initial_state()], [()]
        for index, item in steps:
            index %= len(states)
            state, model = states[index], models[index]
            if item is None:
                (response, state), = queue.apply(state, Invocation("Deq"))
                expected = ok(model[0]) if model else signal("Empty")
                assert response == expected
                model = model[1:]
            else:
                (_response, state), = queue.apply(state, Invocation("Enq", (item,)))
                model = model + (item,)
            states.append(state)
            models.append(model)
        # Checked after every branch was cut: later appends to a shared
        # store must not have moved an earlier state.
        for state, model in zip(states, models):
            _check_is_its_tuple(state, model)
        for state, model in zip(states, models):
            other = random.Random(len(model)).randrange(len(states))
            assert (state == states[other]) == (model == models[other])
            assert (state != states[other]) == (model != models[other])

    def test_equal_items_of_different_types_do_not_share_a_store(self):
        queue = Queue()
        (_, base), = queue.apply(queue.initial_state(), Invocation("Enq", ("a",)))
        (_, one), = queue.apply(base, Invocation("Enq", (1,)))
        (_, true), = queue.apply(base, Invocation("Enq", (True,)))
        (_, one_again), = queue.apply(base, Invocation("Enq", (1,)))
        assert [type(item) for item in one] == [str, int]
        assert [type(item) for item in true] == [str, bool]
        assert one_again._store is one._store  # the same value, shared
        assert true._store is not one._store  # an equal value, forked
        _check_is_its_tuple(one, ("a", 1))
        _check_is_its_tuple(true, ("a", True))

    def test_a_long_walk_keeps_the_store_bounded(self):
        # The window rebases when its dead prefix outgrows it, so a state
        # pins at most twice its length plus _SLACK items of store.
        queue, rng = Queue(), random.Random(7)
        state, model = queue.initial_state(), ()
        for step in range(20_000):
            grow = 0.6 if (step // 2_500) % 2 == 0 else 0.4
            if rng.random() < grow:
                item = rng.choice("ab")
                (_, state), = queue.apply(state, Invocation("Enq", (item,)))
                model = model + (item,)
            else:
                (_, state), = queue.apply(state, Invocation("Deq"))
                model = model[1:]
            assert len(state._store) <= 2 * len(state) + _SLACK
        assert state == model and len(model) > 0


class TestPROM:
    def test_write_then_seal_then_read(self, prom_oracle):
        history = (
            event("Write", ("x",)),
            event("Seal"),
            event("Read", (), ok("x")),
        )
        assert prom_oracle.is_legal(history)

    def test_read_before_seal_is_disabled(self, prom_oracle):
        assert prom_oracle.is_legal((event("Read", (), signal("Disabled")),))
        assert not prom_oracle.is_legal((event("Read", (), ok("0")),))

    def test_write_after_seal_is_disabled(self, prom_oracle):
        history = (event("Seal"), event("Write", ("x",), signal("Disabled")))
        assert prom_oracle.is_legal(history)
        assert not prom_oracle.is_legal((event("Seal"), event("Write", ("x",))))

    def test_disabled_write_has_no_effect(self, prom_oracle):
        history = (
            event("Write", ("y",)),
            event("Seal"),
            event("Write", ("x",), signal("Disabled")),
            event("Read", (), ok("y")),
        )
        assert prom_oracle.is_legal(history)

    def test_seal_idempotent(self, prom_oracle):
        history = (event("Seal"), event("Seal"), event("Read", (), ok("0")))
        assert prom_oracle.is_legal(history)

    def test_read_returns_last_write_before_seal(self, prom_oracle):
        history = (
            event("Write", ("x",)),
            event("Write", ("y",)),
            event("Seal"),
            event("Read", (), ok("x")),
        )
        assert not prom_oracle.is_legal(history)

    def test_default_value_readable_after_seal(self, prom_oracle):
        assert prom_oracle.is_legal((event("Seal"), event("Read", (), ok("0"))))


class TestFlagSet:
    def test_open_sets_flag_one(self, flagset):
        [(res, state)] = flagset.apply(flagset.initial_state(), Invocation("Open"))
        assert res == ok()
        assert state[2] == (True, False, False, False)

    def test_double_open_disabled(self, flagset_oracle):
        history = (event("Open"), event("Open", (), signal("Disabled")))
        assert flagset_oracle.is_legal(history)
        assert not flagset_oracle.is_legal((event("Open"), event("Open")))

    def test_shift_before_open_disabled(self, flagset_oracle):
        assert flagset_oracle.is_legal((event("Shift", (1,), signal("Disabled")),))
        assert not flagset_oracle.is_legal((event("Shift", (1,)),))

    def test_full_shift_chain_reaches_flag_four(self, flagset_oracle):
        history = (
            event("Open"),
            event("Shift", (1,)),
            event("Shift", (2,)),
            event("Shift", (3,)),
            event("Close", (), ok(True)),
        )
        assert flagset_oracle.is_legal(history)

    def test_skipping_a_shift_leaves_flag_four_false(self, flagset_oracle):
        history = (
            event("Open"),
            event("Shift", (1,)),
            event("Shift", (3,)),
            event("Close", (), ok(False)),
        )
        assert flagset_oracle.is_legal(history)

    def test_close_disables_shift_after_open(self, flagset_oracle):
        history = (
            event("Open"),
            event("Close", (), ok(False)),
            event("Shift", (1,), signal("Disabled")),
        )
        assert flagset_oracle.is_legal(history)

    def test_close_before_open_does_not_disable(self, flagset_oracle):
        history = (
            event("Close", (), ok(False)),
            event("Open"),
            event("Shift", (1,)),
        )
        assert flagset_oracle.is_legal(history)

    def test_shift_out_of_range_rejected(self, flagset):
        with pytest.raises(SpecificationError):
            flagset.apply(flagset.initial_state(), Invocation("Shift", (4,)))


class TestDoubleBuffer:
    def test_produce_transfer_consume(self, doublebuffer_oracle):
        history = (
            event("Produce", ("x",)),
            event("Transfer"),
            event("Consume", (), ok("x")),
        )
        assert doublebuffer_oracle.is_legal(history)

    def test_consume_without_transfer_sees_default(self, doublebuffer_oracle):
        history = (event("Produce", ("x",)), event("Consume", (), ok("0")))
        assert doublebuffer_oracle.is_legal(history)

    def test_transfer_copies_current_producer(self, doublebuffer_oracle):
        history = (
            event("Produce", ("x",)),
            event("Produce", ("y",)),
            event("Transfer"),
            event("Consume", (), ok("x")),
        )
        assert not doublebuffer_oracle.is_legal(history)

    def test_consume_is_read_only(self, doublebuffer_oracle):
        history = (
            event("Produce", ("x",)),
            event("Transfer"),
            event("Consume", (), ok("x")),
            event("Consume", (), ok("x")),
        )
        assert doublebuffer_oracle.is_legal(history)


class TestRegister:
    def test_read_sees_last_write(self, register_oracle):
        history = (
            event("Write", ("x",)),
            event("Write", ("y",)),
            event("Read", (), ok("y")),
        )
        assert register_oracle.is_legal(history)
        assert not register_oracle.is_legal(history[:2] + (event("Read", (), ok("x")),))

    def test_initial_value_readable(self, register_oracle):
        assert register_oracle.is_legal((event("Read", (), ok("0")),))


class TestCounter:
    def test_inc_dec_read(self, counter_oracle):
        history = (
            event("Inc"),
            event("Inc"),
            event("Dec"),
            event("Read", (), ok(1)),
        )
        assert counter_oracle.is_legal(history)

    def test_underflow_signalled_at_zero(self, counter_oracle):
        assert counter_oracle.is_legal((event("Dec", (), signal("Underflow")),))
        assert not counter_oracle.is_legal((event("Dec"),))

    def test_underflow_has_no_effect(self, counter_oracle):
        history = (
            event("Dec", (), signal("Underflow")),
            event("Read", (), ok(0)),
        )
        assert counter_oracle.is_legal(history)


class TestBag:
    def test_insert_member_remove(self):
        oracle = LegalityOracle(Bag())
        history = (
            event("Insert", ("x",)),
            event("Member", ("x",), ok(True)),
            event("Remove", ("x",)),
            event("Member", ("x",), ok(False)),
        )
        assert oracle.is_legal(history)

    def test_insert_idempotent(self):
        oracle = LegalityOracle(Bag())
        history = (
            event("Insert", ("x",)),
            event("Insert", ("x",)),
            event("Remove", ("x",)),
            event("Member", ("x",), ok(False)),
        )
        assert oracle.is_legal(history)

    def test_remove_absent_signals(self):
        oracle = LegalityOracle(Bag())
        assert oracle.is_legal((event("Remove", ("x",), signal("Absent")),))


class TestDirectory:
    def test_insert_lookup_update_delete_cycle(self):
        oracle = LegalityOracle(Directory())
        history = (
            event("Insert", ("j", "u")),
            event("Lookup", ("j",), ok("u")),
            event("Update", ("j", "v")),
            event("Lookup", ("j",), ok("v")),
            event("Delete", ("j",)),
            event("Lookup", ("j",), signal("Absent")),
        )
        assert oracle.is_legal(history)

    def test_double_insert_signals_present(self):
        oracle = LegalityOracle(Directory())
        history = (
            event("Insert", ("j", "u")),
            event("Insert", ("j", "v"), signal("Present")),
            event("Lookup", ("j",), ok("u")),
        )
        assert oracle.is_legal(history)

    def test_update_absent_signals(self):
        oracle = LegalityOracle(Directory())
        assert oracle.is_legal((event("Update", ("j", "u"), signal("Absent")),))


class TestAccount:
    def test_deposit_withdraw_balance(self):
        oracle = LegalityOracle(Account())
        history = (
            event("Deposit", (2,)),
            event("Withdraw", (1,)),
            event("Balance", (), ok(1)),
        )
        assert oracle.is_legal(history)

    def test_overdraft_protection(self):
        oracle = LegalityOracle(Account())
        history = (
            event("Deposit", (1,)),
            event("Withdraw", (2,), signal("Overdraft")),
            event("Balance", (), ok(1)),
        )
        assert oracle.is_legal(history)
        assert not oracle.is_legal(
            (event("Deposit", (1,)), event("Withdraw", (2,)))
        )

    def test_non_positive_amounts_rejected(self):
        with pytest.raises(SpecificationError):
            Account(amounts=(0,))


class TestStack:
    def test_lifo_order(self):
        oracle = LegalityOracle(Stack())
        history = (
            event("Push", ("a",)),
            event("Push", ("b",)),
            event("Pop", (), ok("b")),
            event("Pop", (), ok("a")),
            event("Pop", (), signal("Empty")),
        )
        assert oracle.is_legal(history)

    def test_fifo_order_is_illegal_for_stack(self):
        oracle = LegalityOracle(Stack())
        history = (
            event("Push", ("a",)),
            event("Push", ("b",)),
            event("Pop", (), ok("a")),
        )
        assert not oracle.is_legal(history)


class TestSemiQueue:
    def test_deq_may_return_any_enqueued_item(self):
        oracle = LegalityOracle(SemiQueue())
        base = (event("Enq", ("a",)), event("Enq", ("b",)))
        assert oracle.is_legal(base + (event("Deq", (), ok("a")),))
        assert oracle.is_legal(base + (event("Deq", (), ok("b")),))

    def test_cannot_deq_more_than_enqueued(self):
        oracle = LegalityOracle(SemiQueue())
        history = (
            event("Enq", ("a",)),
            event("Deq", (), ok("a")),
            event("Deq", (), ok("a")),
        )
        assert not oracle.is_legal(history)

    def test_nondeterminism_tracked_through_frontier(self):
        oracle = LegalityOracle(SemiQueue())
        # After Enq a, Enq b, Deq;Ok(a): only b remains.
        history = (
            event("Enq", ("a",)),
            event("Enq", ("b",)),
            event("Deq", (), ok("a")),
            event("Deq", (), ok("b")),
            event("Deq", (), signal("Empty")),
        )
        assert oracle.is_legal(history)


class TestLogObject:
    def test_append_size_last(self):
        oracle = LegalityOracle(LogObject())
        history = (
            event("Append", ("a",)),
            event("Append", ("b",)),
            event("Size", (), ok(2)),
            event("Last", (), ok("b")),
        )
        assert oracle.is_legal(history)

    def test_last_on_empty_signals(self):
        oracle = LegalityOracle(LogObject())
        assert oracle.is_legal((event("Last", (), signal("Empty")),))


class TestAllTypesContract:
    """Every type satisfies the SerialDataType contract."""

    def test_initial_state_hashable(self, all_types):
        for datatype in all_types:
            hash(datatype.initial_state())

    def test_every_invocation_total_in_initial_state(self, all_types):
        for datatype in all_types:
            state = datatype.initial_state()
            for inv in datatype.invocations():
                outcomes = list(datatype.apply(state, inv))
                assert outcomes, f"{datatype.name}.{inv} has no outcome"

    def test_next_states_hashable(self, all_types):
        for datatype in all_types:
            state = datatype.initial_state()
            for inv in datatype.invocations():
                for _res, next_state in datatype.apply(state, inv):
                    hash(next_state)

    def test_operations_derived_from_invocations(self, all_types):
        for datatype in all_types:
            assert datatype.operations() == {
                inv.op for inv in datatype.invocations()
            }

    def test_unknown_operation_raises(self, all_types):
        for datatype in all_types:
            with pytest.raises(SpecificationError):
                datatype.apply(
                    datatype.initial_state(), Invocation("NoSuchOperation")
                )
