"""Unit tests for bounded serial-history enumeration."""

from repro.histories.events import Invocation, event, ok, signal
from repro.spec.enumerate import (
    event_alphabet,
    legal_serial_histories,
    response_alphabet,
)
from repro.types import PROM, Queue, Register


class TestLegalSerialHistories:
    def test_includes_empty_history(self, queue):
        assert () in set(legal_serial_histories(queue, 1))

    def test_every_yielded_history_is_legal(self, queue, queue_oracle):
        for history in legal_serial_histories(queue, 3, queue_oracle):
            assert queue_oracle.is_legal(history)

    def test_exhaustive_at_depth_one(self, queue):
        histories = set(legal_serial_histories(queue, 1))
        assert histories == {
            (),
            (event("Enq", ("a",)),),
            (event("Enq", ("b",)),),
            (event("Deq", (), signal("Empty")),),
        }

    def test_counts_grow_with_depth(self, queue):
        shallow = sum(1 for _ in legal_serial_histories(queue, 2))
        deep = sum(1 for _ in legal_serial_histories(queue, 3))
        assert deep > shallow
        assert sum(1 for _ in legal_serial_histories(queue, 4)) > 100

    def test_register_count_closed_form(self, register):
        # Register: every event sequence over {Write x, Write y, Read last}
        # is determined; at each state 3 events are legal (2 writes + 1 read).
        count = sum(1 for _ in legal_serial_histories(register, 2))
        assert count == 1 + 3 + 9


class TestEventAlphabet:
    def test_queue_alphabet(self, queue):
        alphabet = set(event_alphabet(queue, 3))
        assert event("Enq", ("a",)) in alphabet
        assert event("Deq", (), signal("Empty")) in alphabet
        assert event("Deq", (), ok("a")) in alphabet

    def test_alphabet_deterministic_order(self, queue):
        assert event_alphabet(queue, 3) == event_alphabet(queue, 3)

    def test_prom_disabled_read_included(self, prom):
        alphabet = set(event_alphabet(prom, 2))
        assert event("Read", (), signal("Disabled")) in alphabet
        assert event("Read", (), ok("0")) in alphabet


class TestResponseAlphabet:
    def test_queue_deq_responses(self, queue):
        mapping = response_alphabet(queue, 3)
        deq = set(mapping[Invocation("Deq")])
        assert deq == {ok("a"), ok("b"), signal("Empty")}

    def test_enq_only_ok(self, queue):
        mapping = response_alphabet(queue, 3)
        assert set(mapping[Invocation("Enq", ("a",))]) == {ok()}
