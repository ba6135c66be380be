"""Unit tests for the legality oracle: replay, frontiers, equivalence."""

import pytest

from repro.histories.events import Invocation, event, ok, signal
from repro.spec.datatype import SerialDataType
from repro.spec.legality import LegalityOracle, MergedFrontiers
from repro.types import Directory, Queue, Register, SemiQueue, standard_types

from tests.helpers import CountingRegister, HiddenCoin
from tests.oracles import distinguishing_suffix, legal_serial_histories


class TestLegality:
    def test_empty_history_is_legal(self, queue_oracle):
        assert queue_oracle.is_legal(())

    def test_prefix_closed(self, queue_oracle):
        history = (
            event("Enq", ("a",)),
            event("Enq", ("b",)),
            event("Deq", (), ok("a")),
        )
        assert queue_oracle.is_legal(history)
        for cut in range(len(history)):
            assert queue_oracle.is_legal(history[:cut])

    def test_long_histories_replay_cold_and_warm(self, queue_oracle):
        enq_a, enq_b = event("Enq", ("a",)), event("Enq", ("b",))
        deq_a, deq_b = event("Deq", (), ok("a")), event("Deq", (), ok("b"))
        cold = (enq_a, enq_b, deq_a, enq_a, deq_b, deq_a) * 2
        assert LegalityOracle(Queue()).is_legal(cold)
        warm = (enq_a, enq_b, deq_a, deq_b) * 3
        assert queue_oracle.is_legal(warm) and queue_oracle.is_legal(warm)

    def test_extension_of_illegal_stays_illegal(self, queue_oracle):
        bad = (event("Deq", (), ok("a")),)
        assert not queue_oracle.is_legal(bad)
        assert not queue_oracle.is_legal(bad + (event("Enq", ("a",)),))

    def test_is_legal_extension_matches_concatenation(self, queue_oracle):
        # The runtime extends a history by stepping the trie node it has
        # reached (a serial cache's committed node), not by replaying the
        # concatenation: both must agree.
        base = (event("Enq", ("a",)),)

        def extended(suffix):
            node = queue_oracle._node(base)
            for each in suffix:
                node = queue_oracle._step(node, each)
            return node.frontier is not None

        good, bad = (event("Deq", (), ok("a")),), (event("Deq", (), ok("b")),)
        for suffix in ((), good, bad, good + good):
            assert extended(suffix) == queue_oracle.is_legal(base + suffix)
        assert extended(good) and not extended(bad)
        assert extended(()) == queue_oracle.is_legal(base)

    def test_memoization_consistent_across_repeats(self, queue_oracle):
        history = (event("Enq", ("a",)), event("Deq", (), ok("a")))
        assert queue_oracle.is_legal(history) == queue_oracle.is_legal(history)


class TestResponses:
    def test_responses_reflect_state(self, queue_oracle):
        after_enq = (event("Enq", ("a",)),)
        responses = queue_oracle.responses(after_enq, Invocation("Deq"))
        assert responses == {ok("a")}

    def test_responses_on_empty_queue(self, queue_oracle):
        assert queue_oracle.responses((), Invocation("Deq")) == {signal("Empty")}

    def test_responses_of_illegal_history_empty(self, queue_oracle):
        bad = (event("Deq", (), ok("a")),)
        assert queue_oracle.responses(bad, Invocation("Deq")) == set()

    def test_nondeterministic_responses_enumerated(self):
        oracle = LegalityOracle(SemiQueue())
        base = (event("Enq", ("a",)), event("Enq", ("b",)))
        assert oracle.responses(base, Invocation("Deq")) == {ok("a"), ok("b")}


class TestFrontier:
    def test_frontier_none_for_illegal(self, queue_oracle):
        assert queue_oracle.frontier_key((event("Deq", (), ok("a")),)) is None

    def test_frontier_tracks_state(self, queue_oracle):
        one = queue_oracle.frontier_key((event("Enq", ("a",)),))
        other = queue_oracle.frontier_key((event("Enq", ("b",)),))
        assert one != other

    def test_nondeterminism_widens_frontier(self):
        oracle = LegalityOracle(SemiQueue())
        base = (event("Enq", ("a",)), event("Enq", ("b",)), event("Deq", (), ok("a")))
        frontier = oracle.frontier_key(base)
        assert frontier is not None and len(frontier) == 1


class TestEquivalence:
    def test_equivalent_when_final_state_matches(self):
        oracle = LegalityOracle(Register())
        overwritten = (event("Write", ("x",)), event("Write", ("y",)))
        direct = (event("Write", ("y",)),)
        assert oracle.equivalent(overwritten, direct)

    def test_inequivalent_states(self, queue_oracle):
        assert not queue_oracle.equivalent(
            (event("Enq", ("a",)),), (event("Enq", ("b",)),)
        )

    def test_illegal_never_equivalent(self, queue_oracle):
        bad = (event("Deq", (), ok("a")),)
        assert not queue_oracle.equivalent(bad, bad)

    def test_distinguishing_suffix_agrees_with_equivalence(self, queue_oracle):
        first = (event("Enq", ("a",)),)
        second = (event("Enq", ("b",)),)
        suffix = distinguishing_suffix(queue_oracle, first, second, depth=2)
        assert suffix is not None
        assert queue_oracle.is_legal(first + suffix) != (
            queue_oracle.is_legal(second + suffix)
        )

    def test_no_distinguishing_suffix_for_equivalent(self, queue_oracle):
        first = (event("Enq", ("a",)), event("Deq", (), ok("a")))
        second = (event("Deq", (), signal("Empty")),)
        assert queue_oracle.equivalent(first, second)
        assert distinguishing_suffix(queue_oracle, first, second, depth=3) is None


def _frontiers(datatype, depth):
    """``frontier key -> level`` as :meth:`MergedFrontiers.levels` walks them."""
    oracle = LegalityOracle(datatype)
    merged = MergedFrontiers(oracle)
    nodes = [
        (oracle._keys(node), length)
        for length, level in enumerate(merged.levels(depth))
        for node in level
    ]
    assert len(dict(nodes)) == len(nodes), "a frontier was walked twice"
    return dict(nodes)


class TestMergedFrontiers:
    @pytest.mark.parametrize(
        "datatype",
        [*standard_types(), HiddenCoin(), CountingRegister()],
        ids=lambda d: d.name,
    )
    def test_levels_reach_each_frontier_once_at_its_shallowest_depth(self, datatype):
        # Trap (ii), frontier half: PROM reaches (y, unsealed) by
        # Write(x)·Write(y) before it reaches it by Write(y) — a depth-first
        # walk with a plain visited set would leave it one event short.
        depth = 2 if isinstance(datatype, Directory) else 4
        oracle = LegalityOracle(datatype)
        shallowest: dict = {}
        for history in legal_serial_histories(datatype, depth, oracle):
            key = oracle.frontier_key(history)
            shallowest[key] = min(shallowest.get(key, depth), len(history))
        assert _frontiers(datatype, depth) == shallowest

    def test_steps_answer_with_the_canonical_node(self):
        merged = MergedFrontiers(LegalityOracle(Register()))
        write_x, write_y = event("Write", ("x",)), event("Write", ("y",))
        at_y = merged.after(merged.root, write_y)
        assert merged.after(merged.after(merged.root, write_x), write_y) is at_y
        assert merged.after(at_y, event("Read", (), ok("y"))) is at_y
        assert merged.after(at_y, event("Read", (), ok("x"))) is None

    def test_moves_follow_the_generator_alphabet_in_enumeration_order(self, queue):
        merged = MergedFrontiers(LegalityOracle(queue))
        first_events = [h[0] for h in legal_serial_histories(queue, 1) if h]
        assert [ev for ev, _child in merged.moves(merged.root)] == first_events
        assert merged.enabled(merged.root) == first_events

    def test_a_hidden_choice_merges_on_sets_of_states(self):
        toss, peek_tails = event("Toss"), event("Peek", (), ok("tails"))
        oracle = LegalityOracle(HiddenCoin())
        assert oracle.frontier_key((toss,)) == {"heads", "tails"}
        assert oracle.frontier_key((toss, peek_tails)) == {"tails"}
        assert set(_frontiers(HiddenCoin(), 3)) == {
            frozenset({"heads"}),
            frozenset({"heads", "tails"}),
            frozenset({"tails"}),
        }

    def test_merging_is_on_canonical_keys_not_states(self):
        # The write counter makes every raw state new; canonical() strips it.
        assert _frontiers(CountingRegister(), 5) == _frontiers(Register(), 5)

    def test_the_trie_grows_by_one_child_per_frontier_and_event(self):
        oracle = LegalityOracle(Register())
        merged = MergedFrontiers(oracle)
        for _ in range(2):
            walked = [node for level in merged.levels(6) for node in level]
            # '0', 'x', 'y': three frontiers, three enabled events each.
            assert len(walked) == 3
            assert oracle.cache_nodes() == 1 + 3 * 3


class _Tallied:
    """A counter value that records every ``__hash__`` call in ``tally``."""

    __slots__ = ("value", "tally")

    def __init__(self, value, tally):
        self.value, self.tally = value, tally

    def __eq__(self, other):
        return isinstance(other, _Tallied) and other.value == self.value

    def __hash__(self):
        self.tally["hash"] += 1
        return hash(self.value)


class TalliedCounter(SerialDataType):
    """A deterministic counter whose states count hashes and whose
    ``canonical`` counts its own calls."""

    name = "TalliedCounter"

    def __init__(self):
        self.tally = {"hash": 0, "canonical": 0}

    def initial_state(self):
        return _Tallied(0, self.tally)

    def apply(self, state, invocation):
        if invocation.op == "Inc":
            return [(ok(), _Tallied(state.value + 1, self.tally))]
        return [(ok(state.value), state)]

    def invocations(self):
        return (Invocation("Inc"), Invocation("Read"))

    def canonical(self, state):
        self.tally["canonical"] += 1
        return state


class TaggedCoin(HiddenCoin):
    """A :class:`HiddenCoin` whose state also remembers the face it was
    tossed from; ``canonical`` strips the tag, so two raw states share a
    key and a frontier must pick which one represents it."""

    name = "TaggedCoin"

    def initial_state(self):
        return ("heads", None)

    def apply(self, state, invocation):
        face, _tag = state
        if invocation.op == "Toss":
            return [(ok(), ("heads", face)), (ok(), ("tails", face))]
        return [(res, state) for res, _face in super().apply(face, invocation)]

    def canonical(self, state):
        return state[0]


def _reference_frontier(datatype, history):
    """The frontier replayed from the initial state as a ``{canonical
    key: state}`` dict: the last state per key, at the key's first
    position."""
    initial = datatype.initial_state()
    frontier = {datatype.canonical(initial): initial}
    for ev in history:
        reached = {}
        for state in frontier.values():
            for response, next_state in datatype.apply(state, ev.inv):
                if response == ev.res:
                    reached[datatype.canonical(next_state)] = next_state
        frontier = reached
    return tuple(frontier.values())


class TestRuntimeStep:
    def test_a_one_state_step_hashes_nothing(self):
        datatype = TalliedCounter()
        oracle = LegalityOracle(datatype)
        inc, read = Invocation("Inc"), Invocation("Read")
        node = oracle._root
        for _ in range(5):
            node = oracle._step(node, event("Inc"))
            (read_event, node), = oracle._successors(node, read)
            (_inc_event, node), = oracle._successors(node, inc)
        assert read_event == event("Read", (), ok(9))
        assert oracle.is_legal((event("Inc"), event("Read", (), ok(1))))
        assert datatype.tally == {"hash": 0, "canonical": 0}
        # Equivalence still reads canonical keys, built once per node.
        assert oracle.frontier_key((event("Inc"),)) is oracle.frontier_key(
            (event("Inc"),)
        )
        assert datatype.tally == {"hash": 1, "canonical": 1}

    @pytest.mark.parametrize(
        "datatype",
        [SemiQueue(), CountingRegister(), HiddenCoin(), TaggedCoin()],
        ids=lambda d: d.name,
    )
    def test_frontiers_keep_the_parents_representatives(self, datatype):
        stepped, walked = LegalityOracle(datatype), LegalityOracle(datatype)
        sizes = set()
        for history in legal_serial_histories(datatype, 4, stepped):
            expected = _reference_frontier(datatype, history)
            assert stepped._node(history).frontier == expected
            node = walked._root
            for ev in history:
                node = dict(walked._successors(node, ev.inv))[ev]
            assert node.frontier == expected
            assert walked._keys(node) == frozenset(map(datatype.canonical, expected))
            sizes.add(len(expected))
        assert sizes == ({1, 2} if isinstance(datatype, HiddenCoin) else {1})
        if isinstance(datatype, TaggedCoin):  # the last state per key is kept
            toss = event("Toss")
            assert stepped._node((toss, toss)).frontier == (
                ("heads", "tails"),
                ("tails", "tails"),
            )
