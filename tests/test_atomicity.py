"""Unit tests for the three local atomicity property checkers."""

import pytest

from repro.atomicity.explore import ExplorationBounds, behavioral_histories
from repro.atomicity.properties import (
    DynamicAtomicity,
    HybridAtomicity,
    StaticAtomicity,
    is_atomic,
)
from repro.histories.behavioral import Abort, Begin, BehavioralHistory, Commit, Op
from repro.histories.events import event, ok, signal
from repro.types import Queue, Register
from tests.helpers import count_calls


ENQ_A = event("Enq", ("a",))
ENQ_B = event("Enq", ("b",))
DEQ_A = event("Deq", (), ok("a"))
DEQ_B = event("Deq", (), ok("b"))


def _paper_section_31(queue_fix=True):
    """The behavioral Queue history from Section 3.1 (B dequeues A's x)."""
    return BehavioralHistory.build(
        Begin("A"),
        Op(event("Enq", ("x",)), "A"),
        Begin("B"),
        Op(event("Enq", ("y",)), "B"),
        Commit("A"),
        Op(event("Deq", (), ok("x")), "B"),
        Commit("B"),
    )


class TestStaticAtomicity:
    def test_paper_example_is_static_atomic(self, queue, queue_oracle):
        prop = StaticAtomicity(queue, queue_oracle)
        assert prop.admits(_paper_section_31())

    def test_commit_order_against_begin_order_rejected(self, queue, queue_oracle):
        # B begins after A but B's enqueue must serialize first for the
        # dequeue to be legal — impossible in begin order.
        history = BehavioralHistory.build(
            Begin("A"),
            Begin("B"),
            Op(ENQ_B, "B"),
            Commit("B"),
            Op(ENQ_A, "A"),
            Op(DEQ_B, "A"),
            Commit("A"),
        )
        prop = StaticAtomicity(queue, queue_oracle)
        assert not prop.admits(history)

    def test_online_requirement_bites_before_commit(self, queue, queue_oracle):
        # Two active actions that both dequeued the same item: committing
        # both in begin order is illegal, so the history is rejected even
        # though neither committed yet.
        history = BehavioralHistory.build(
            Begin("A"),
            Op(ENQ_A, "A"),
            Commit("A"),
            Begin("B"),
            Begin("C"),
            Op(DEQ_A, "B"),
            Op(DEQ_A, "C"),
        )
        prop = StaticAtomicity(queue, queue_oracle)
        assert not prop.admits(history)

    def test_aborted_actions_ignored(self, queue, queue_oracle):
        # B enqueues and aborts; A's Deq();Empty() is then legal because
        # the aborted enqueue has no effect.  Had B stayed active, the
        # on-line check (commit B after A) would reject the history.
        empty = event("Deq", (), signal("Empty"))
        history = BehavioralHistory.build(
            Begin("B"),
            Op(ENQ_A, "B"),
            Abort("B"),
            Begin("A"),
            Op(empty, "A"),
            Commit("A"),
        )
        prop = StaticAtomicity(queue, queue_oracle)
        assert prop.admits(history)
        still_active = BehavioralHistory.build(
            Begin("B"),
            Op(ENQ_A, "B"),
            Begin("A"),
            Op(empty, "A"),
        )
        assert not prop.admits(still_active)


class TestHybridAtomicity:
    def test_commit_order_serialization_accepted(self, queue, queue_oracle):
        # Same history rejected by static: commit order is B then A.
        history = BehavioralHistory.build(
            Begin("A"),
            Begin("B"),
            Op(ENQ_B, "B"),
            Commit("B"),
            Op(ENQ_A, "A"),
            Op(DEQ_B, "A"),
            Commit("A"),
        )
        prop = HybridAtomicity(queue, queue_oracle)
        assert prop.admits(history)

    def test_hybrid_rejects_wrong_commit_order(self, queue, queue_oracle):
        history = BehavioralHistory.build(
            Begin("A"),
            Begin("B"),
            Op(ENQ_A, "A"),
            Op(DEQ_A, "B"),  # B reads A's uncommitted enqueue…
            Commit("B"),     # …and commits first: Deq before Enq — illegal.
        )
        prop = HybridAtomicity(queue, queue_oracle)
        assert not prop.admits(history)

    def test_online_all_commit_permutations_checked(self, queue, queue_oracle):
        # Two active actions with non-commuting enqueues are fine under
        # hybrid (either commit order works for a queue with two items).
        history = BehavioralHistory.build(
            Begin("A"), Begin("B"), Op(ENQ_A, "A"), Op(ENQ_B, "B")
        )
        prop = HybridAtomicity(queue, queue_oracle)
        assert prop.admits(history)


class TestDynamicAtomicity:
    def test_concurrent_noncommuting_enqueues_rejected(self, queue, queue_oracle):
        # Dynamic atomicity demands all precedes-consistent orders be
        # equivalent; Enq(a) and Enq(b) by concurrent actions are not.
        history = BehavioralHistory.build(
            Begin("A"), Begin("B"), Op(ENQ_A, "A"), Op(ENQ_B, "B")
        )
        prop = DynamicAtomicity(queue, queue_oracle)
        assert not prop.admits(history)

    def test_precedes_order_restores_admission(self, queue, queue_oracle):
        # Same operations, but B acts after A commits: only one order.
        history = BehavioralHistory.build(
            Begin("A"),
            Begin("B"),
            Op(ENQ_A, "A"),
            Commit("A"),
            Op(ENQ_B, "B"),
        )
        prop = DynamicAtomicity(queue, queue_oracle)
        assert prop.admits(history)

    def test_commuting_concurrency_allowed(self, register, register_oracle):
        # Two reads commute: concurrent readers are fine under locking.
        read0 = event("Read", (), ok("0"))
        history = BehavioralHistory.build(
            Begin("A"), Begin("B"), Op(read0, "A"), Op(read0, "B")
        )
        prop = DynamicAtomicity(register, register_oracle)
        assert prop.admits(history)

    def test_dynamic_subset_of_hybrid(self, queue, queue_oracle):
        bounds = ExplorationBounds(max_ops=2, max_actions=2)
        dynamic = DynamicAtomicity(queue, queue_oracle)
        hybrid = HybridAtomicity(queue, queue_oracle)
        for history in behavioral_histories(dynamic, bounds):
            assert hybrid.admits(history)


class TestGenericAtomicity:
    def test_atomic_in_some_order(self, queue, queue_oracle):
        history = BehavioralHistory.build(
            Begin("A"),
            Begin("B"),
            Op(ENQ_B, "B"),
            Op(DEQ_B, "A"),
            Commit("A"),
            Commit("B"),
        )
        assert is_atomic(queue_oracle, history)

    def test_not_atomic_in_any_order(self, queue, queue_oracle):
        history = BehavioralHistory.build(
            Begin("A"),
            Begin("B"),
            Op(DEQ_A, "A"),
            Op(DEQ_A, "B"),
            Op(ENQ_A, "A"),
            Commit("A"),
            Commit("B"),
        )
        assert not is_atomic(queue_oracle, history)


def _short_transactions(count, last=()):
    """``count`` serial single-``Enq(a)`` transactions, then ``last``."""
    entries = []
    for number in range(count):
        action = f"T{number}"
        entries += [Begin(action), Op(ENQ_A, action), Commit(action)]
    return entries + list(last)


def _two_long_transactions(dequeues, last=()):
    """``A`` enqueues 598 times and commits, ``B`` dequeues, then ``last``.

    The run-length shape for strong dynamic atomicity: Definition 7's
    check reads ``precedes``, which is quadratic in *committed actions*,
    so four hundred of them cost ``check_history`` (not ``admits``) tens
    of seconds.
    """
    entries = [Begin("A"), *[Op(ENQ_A, "A")] * 598, Commit("A"), Begin("B")]
    return entries + [Op(DEQ_A, "B")] * dequeues + list(last)


RUN_LENGTH = [
    (StaticAtomicity, _short_transactions, 400),
    (HybridAtomicity, _short_transactions, 400),
    (DynamicAtomicity, _two_long_transactions, 598),
]


class TestRunLengthHistories:
    """``admits`` on histories as long as the runtime records them.

    One stack frame per entry overflowed at about a thousand entries
    (the ``long-history`` queue's recorder yields two thousand).
    """

    @pytest.mark.parametrize("prop_type, shape, count", RUN_LENGTH)
    def test_admitted_without_recursion_and_checked_once(
        self, monkeypatch, prop_type, shape, count
    ):
        entries = shape(count, [Commit("B")] if shape is _two_long_transactions else ())
        history = BehavioralHistory(entries)
        assert len(history) == 1200
        prop = prop_type(Queue())
        entered = count_calls(monkeypatch, prop_type, "check_history")
        assert prop.admits(history)
        first_pass = entered.calls
        assert 0 < first_pass <= len(history.ops()), "at most one check per Op prefix"
        assert prop.admits(history)
        assert prop.admits(BehavioralHistory(entries)), "an equal history, rebuilt"
        assert entered.calls == first_pass, "a decided history is not checked again"

    @pytest.mark.parametrize("prop_type, shape, count", RUN_LENGTH)
    def test_rejected_at_the_first_bad_prefix_past_entry_1000(
        self, monkeypatch, prop_type, shape, count
    ):
        # Dequeuing ``b`` from a queue that holds only ``a``.
        late = "B" if shape is _two_long_transactions else "late"
        begin = [] if late == "B" else [Begin(late)]
        good = shape(count - 60) + begin
        bad = len(good)
        assert bad > 1000
        history = BehavioralHistory(
            good + [Op(DEQ_B, late), Op(DEQ_A, late), Commit(late)]
        )
        prop = prop_type(Queue())
        entered = count_calls(monkeypatch, prop_type, "check_history")
        assert not prop.admits(history)
        assert prop.admits(history.prefix(bad))
        assert not prop.admits(history.prefix(bad + 1))
        assert entered.calls <= len(history.prefix(bad + 1).ops()), (
            "nothing past the first rejected prefix is checked"
        )
