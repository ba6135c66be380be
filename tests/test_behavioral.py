"""Unit tests for behavioral histories and their well-formedness rules."""

import pytest

from repro.errors import SpecificationError
from repro.histories.behavioral import (
    Abort,
    Begin,
    BehavioralHistory,
    Commit,
    Op,
)
from repro.histories.events import event, ok


def _paper_example():
    """The behavioral Queue history from Section 3.1."""
    return BehavioralHistory.build(
        Begin("A"),
        Op(event("Enq", ("x",)), "A"),
        Begin("B"),
        Op(event("Enq", ("y",)), "B"),
        Commit("A"),
        Op(event("Deq", (), ok("x")), "B"),
        Commit("B"),
    )


class TestWellFormedness:
    def test_paper_example_is_well_formed(self):
        assert len(_paper_example()) == 7

    def test_op_before_begin_rejected(self):
        with pytest.raises(SpecificationError):
            BehavioralHistory.build(Op(event("Enq", ("x",)), "A"))

    def test_double_begin_rejected(self):
        with pytest.raises(SpecificationError):
            BehavioralHistory.build(Begin("A"), Begin("A"))

    def test_op_after_commit_rejected(self):
        with pytest.raises(SpecificationError):
            BehavioralHistory.build(
                Begin("A"), Commit("A"), Op(event("Enq", ("x",)), "A")
            )

    def test_commit_after_abort_rejected(self):
        with pytest.raises(SpecificationError):
            BehavioralHistory.build(Begin("A"), Abort("A"), Commit("A"))

    def test_double_commit_rejected(self):
        with pytest.raises(SpecificationError):
            BehavioralHistory.build(Begin("A"), Commit("A"), Commit("A"))

    def test_commit_without_begin_rejected(self):
        with pytest.raises(SpecificationError):
            BehavioralHistory.build(Commit("A"))


class TestDerivedState:
    def test_begin_order(self):
        assert _paper_example().begin_order == ("A", "B")

    def test_commit_order(self):
        assert _paper_example().commit_order == ("A", "B")

    def test_active_empty_after_all_commit(self):
        assert _paper_example().active == frozenset()

    def test_active_tracks_uncommitted(self):
        history = BehavioralHistory.build(Begin("A"), Begin("B"), Commit("A"))
        assert history.active == {"B"}

    def test_aborted_excluded_from_active_and_committed(self):
        history = BehavioralHistory.build(Begin("A"), Abort("A"))
        assert history.aborted == {"A"}
        assert history.active == frozenset()
        assert history.committed == frozenset()

    def test_events_of_preserves_order(self):
        history = _paper_example()
        assert history.events_of("B") == (
            event("Enq", ("y",)),
            event("Deq", (), ok("x")),
        )

    def test_events_of_unknown_action_is_empty(self):
        assert _paper_example().events_of("Z") == ()

    def test_ops_in_history_order(self):
        ops = _paper_example().ops()
        assert [op.action for op in ops] == ["A", "B", "B"]


class TestConstruction:
    def test_append_returns_new_history(self):
        base = BehavioralHistory.build(Begin("A"))
        extended = base.append(Commit("A"))
        assert len(base) == 1 and len(extended) == 2

    def test_prefix(self):
        history = _paper_example()
        assert history.prefix(0) == BehavioralHistory()
        assert history.prefix(len(history)) == history

    def test_prefix_of_an_appended_history_is_its_ancestor(self):
        base = BehavioralHistory.build(Begin("A"))
        middle = base.append(Op(event("Enq", ("x",)), "A"))
        last = middle.append(Commit("A"))
        assert last.prefix(2) is middle and last.prefix(1) is base

    def test_a_prefix_carries_the_state_of_its_length(self):
        prefix = _paper_example().prefix(5)  # ... Commit A
        assert prefix.commit_order == ("A",)
        assert prefix.active == {"B"}
        assert prefix.events_of("B") == (event("Enq", ("y",)),)

    def test_subhistory_drops_unkept_ops_and_keeps_every_bracket(self):
        history = _paper_example()
        kept = history.subhistory(frozenset({1}))  # A's Enq('x') only
        assert [str(entry) for entry in kept] == [
            "Begin A", "Enq('x');Ok() A", "Begin B", "Commit A", "Commit B",
        ]
        assert kept.commit_order == history.commit_order
        assert kept.events_of("B") == ()

    def test_an_illegal_append_leaves_the_base_unchanged(self):
        base = BehavioralHistory.build(Begin("A"), Commit("A"))
        with pytest.raises(SpecificationError):
            base.append(Op(event("Enq", ("x",)), "A"))
        assert len(base) == 2 and base.committed == {"A"}
        assert base.append(Begin("B")).active == {"B"}

    def test_events_of_an_extension_adds_to_the_parents(self):
        parent = _paper_example().prefix(4)
        assert parent.events_of("B") == (event("Enq", ("y",)),)  # tabulated
        child = parent.append(Op(event("Enq", ("z",)), "B"))
        assert child.events_of("B") == (event("Enq", ("y",)), event("Enq", ("z",)))
        assert child.events_of("A") == (event("Enq", ("x",)),)
        assert parent.events_of("B") == (event("Enq", ("y",)),)

    def test_equality_and_hash(self):
        assert _paper_example() == _paper_example()
        assert hash(_paper_example()) == hash(_paper_example())

    def test_str_one_entry_per_line(self):
        text = str(BehavioralHistory.build(Begin("A"), Commit("A")))
        assert text.splitlines() == ["Begin A", "Commit A"]
