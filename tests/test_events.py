"""Unit tests for invocations, responses, and events."""

from repro.histories.events import (
    OK,
    Event,
    Invocation,
    Response,
    event,
    ok,
    signal,
)


class TestInvocation:
    def test_renders_like_the_paper(self):
        assert str(Invocation("Enq", ("x",))) == "Enq('x')"

    def test_no_args_renders_empty_parens(self):
        assert str(Invocation("Deq")) == "Deq()"

    def test_hashable(self):
        assert Invocation("Enq", ("x",)) in {Invocation("Enq", ("x",))}

    def test_equality_includes_args(self):
        assert Invocation("Enq", ("x",)) != Invocation("Enq", ("y",))


class TestResponse:
    def test_default_is_normal(self):
        assert Response().is_normal
        assert Response().kind == OK

    def test_exceptional_response_is_not_normal(self):
        assert not signal("Empty").is_normal

    def test_ok_helper_carries_values(self):
        assert ok("x").values == ("x",)

    def test_renders_like_the_paper(self):
        assert str(ok("x")) == "Ok('x')"
        assert str(signal("Disabled")) == "Disabled()"


class TestEvent:
    def test_event_helper_defaults_to_ok(self):
        assert event("Enq", ("x",)).res == ok()

    def test_renders_invocation_semicolon_response(self):
        assert str(event("Deq", (), ok("x"))) == "Deq();Ok('x')"

    def test_normality_follows_response(self):
        assert event("Seal").is_normal
        assert not event("Read", (), signal("Disabled")).is_normal

    def test_events_are_hashable_history_elements(self):
        history = (event("Enq", ("x",)), event("Enq", ("x",)))
        assert len(set(history)) == 1


class TestInterningKeepsTypesApart:
    """``False == 0`` in Python; a flyweight must not be shared across it."""

    def test_bag_member_then_counter_read_renders_the_counter_value(self):
        from repro.types import Bag, Counter

        bag, counter = Bag(), Counter()
        [(member, _)] = bag.apply(bag.initial_state(), Invocation("Member", ("x",)))
        assert str(member) == "Ok(False)"
        read = Invocation("Read")
        [(response, _)] = counter.apply(counter.initial_state(), read)
        assert str(Event(read, response)) == "Read();Ok(0)"

    def test_equal_values_of_different_types_are_distinct_flyweights(self):
        assert Response("Ok", (False,)) is not Response("Ok", (0,))
        assert Invocation("Write", (True,)) is not Invocation("Write", (1,))
        assert Invocation("Write", (1,)) is Invocation("Write", (1,))
        by_bool = Event(Invocation("Write", (True,)), Response("Ok", (False,)))
        by_int = Event(Invocation("Write", (1,)), Response("Ok", (0,)))
        assert by_bool is not by_int
        assert str(by_bool) == "Write(True);Ok(False)"
        assert str(by_int) == "Write(1);Ok(0)"

    def test_equality_and_hashing_stay_by_value(self):
        assert Response("Ok", (False,)) == Response("Ok", (0,))
        assert hash(Response("Ok", (False,))) == hash(Response("Ok", (0,)))
        assert Invocation("Write", (True,)) == Invocation("Write", (1,))
        by_bool = Event(Invocation("Write", (True,)), Response("Ok", (False,)))
        by_int = Event(Invocation("Write", (1,)), Response("Ok", (0,)))
        assert by_bool == by_int and hash(by_bool) == hash(by_int)
        assert len({by_bool, by_int}) == 1
