"""Unit tests for static, hybrid, and dynamic serializations."""

from repro.histories.behavioral import Begin, BehavioralHistory, Commit, Op
from repro.histories.events import event, ok
from repro.histories.serialization import (
    hybrid_serializations,
    linear_extensions,
    precedes_pairs,
    relevant_active,
    serialize,
    static_serializations,
)
from tests.helpers import commit_all
from tests.oracles import dynamic_serializations

ENQ_X = event("Enq", ("x",))
ENQ_Y = event("Enq", ("y",))
DEQ_X = event("Deq", (), ok("x"))


def _two_active():
    """A enqueues x, B enqueues y; both still active."""
    return BehavioralHistory.build(
        Begin("A"), Begin("B"), Op(ENQ_X, "A"), Op(ENQ_Y, "B")
    )


def _interleaved():
    """A commits between B's two operations (induces precedes A < B)."""
    return BehavioralHistory.build(
        Begin("A"),
        Begin("B"),
        Op(ENQ_X, "A"),
        Op(ENQ_Y, "B"),
        Commit("A"),
        Op(DEQ_X, "B"),
    )


class TestSerialize:
    def test_orders_actions_and_keeps_intra_action_order(self):
        history = _interleaved()
        assert serialize(history, ["A", "B"]) == (ENQ_X, ENQ_Y, DEQ_X)
        assert serialize(history, ["B", "A"]) == (ENQ_Y, DEQ_X, ENQ_X)

    def test_excludes_unlisted_actions(self):
        assert serialize(_two_active(), ["A"]) == (ENQ_X,)


class TestStaticSerializations:
    def test_subsets_in_begin_order(self):
        serials = set(static_serializations(_two_active()))
        assert serials == {(), (ENQ_X,), (ENQ_Y,), (ENQ_X, ENQ_Y)}

    def test_committed_always_included(self):
        history = _two_active().append(Commit("A"))
        serials = set(static_serializations(history))
        assert serials == {(ENQ_X,), (ENQ_X, ENQ_Y)}

    def test_begin_order_not_commit_order(self):
        # B begins after A, so B serializes after A even if B commits first.
        history = commit_all(_two_active(), ["B", "A"])
        assert set(static_serializations(history)) == {(ENQ_X, ENQ_Y)}


class TestHybridSerializations:
    def test_active_subsets_in_every_order(self):
        serials = set(hybrid_serializations(_two_active()))
        assert serials == {
            (),
            (ENQ_X,),
            (ENQ_Y,),
            (ENQ_X, ENQ_Y),
            (ENQ_Y, ENQ_X),
        }

    def test_commit_order_respected(self):
        history = commit_all(_two_active(), ["B", "A"])
        assert set(hybrid_serializations(history)) == {(ENQ_Y, ENQ_X)}

    def test_new_commits_after_existing(self):
        history = _two_active().append(Commit("A"))
        serials = set(hybrid_serializations(history))
        # B, if committed, must follow A (A's commit timestamp is earlier).
        assert serials == {(ENQ_X,), (ENQ_X, ENQ_Y)}


class TestPrecedes:
    def test_empty_without_commits(self):
        assert precedes_pairs(_two_active()) == frozenset()

    def test_op_after_commit_creates_pair(self):
        assert precedes_pairs(_interleaved()) == {("A", "B")}

    def test_own_ops_do_not_self_precede(self):
        history = BehavioralHistory.build(
            Begin("A"), Op(ENQ_X, "A"), Commit("A")
        )
        assert precedes_pairs(history) == frozenset()

    def test_commit_without_later_ops_creates_nothing(self):
        history = commit_all(_two_active(), ["A", "B"])
        assert precedes_pairs(history) == frozenset()


class TestLinearExtensions:
    def test_unconstrained_gives_all_permutations(self):
        assert len(list(linear_extensions(["A", "B", "C"], []))) == 6

    def test_chain_gives_single_order(self):
        orders = list(linear_extensions(["A", "B", "C"], [("A", "B"), ("B", "C")]))
        assert orders == [("A", "B", "C")]

    def test_partial_constraint(self):
        orders = set(linear_extensions(["A", "B", "C"], [("A", "C")]))
        assert ("C", "A", "B") not in orders
        assert len(orders) == 3


class TestDynamicSerializations:
    def test_respects_precedes(self):
        serials = set(dynamic_serializations(_interleaved()))
        # A precedes B, so with both included only A-then-B appears.
        assert (ENQ_X, ENQ_Y, DEQ_X) in serials
        assert (ENQ_Y, DEQ_X, ENQ_X) not in serials

    def test_active_unordered_pair_gives_both_orders(self):
        serials = set(dynamic_serializations(_two_active()))
        assert (ENQ_X, ENQ_Y) in serials and (ENQ_Y, ENQ_X) in serials


class TestRelevantActive:
    def test_idle_active_actions_excluded(self):
        history = BehavioralHistory.build(Begin("A"), Begin("B"), Op(ENQ_X, "A"))
        assert relevant_active(history) == {"A"}

    def test_idle_actions_change_no_serializations(self):
        with_idle = BehavioralHistory.build(
            Begin("A"), Begin("B"), Op(ENQ_X, "A")
        )
        without = BehavioralHistory.build(Begin("A"), Op(ENQ_X, "A"))
        assert set(hybrid_serializations(with_idle)) == set(
            hybrid_serializations(without)
        )
        assert set(static_serializations(with_idle)) == set(
            static_serializations(without)
        )
