"""Property-based tests on core invariants (hypothesis).

These target the load-bearing algebraic facts:

* serialization generators agree with the definitions on random
  behavioral histories (dynamic ⊆ hybrid serializations as sets of
  serials when precedes is empty, etc.);
* equivalence via frontiers agrees with bounded observational
  equivalence on random serial histories;
* the dependency searches are monotone in their bound;
* valid threshold choices always satisfy their relation;
* the shortcuts of ``admits`` and ``BehavioralHistory.append`` are sound,
  and a trie step decides what ``admits`` decides.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atomicity.properties import (
    DynamicAtomicity,
    HybridAtomicity,
    StaticAtomicity,
)
from repro.dependency import known
from repro.errors import SpecificationError
from repro.histories.behavioral import Abort, Begin, BehavioralHistory, Commit, Op
from repro.histories.events import Event, Invocation, event, ok, signal
from repro.histories.serialization import (
    hybrid_serializations,
    precedes_pairs,
    static_serializations,
)
from repro.quorum.constraints import satisfies
from repro.quorum.search import valid_threshold_choices
from repro.spec.enumerate import event_alphabet
from repro.spec.legality import LegalityOracle
from repro.types import PROM, DoubleBuffer, FlagSet, Queue
from tests.helpers import commit_all
from tests.oracles import (
    distinguishing_suffix,
    dynamic_serializations,
    reference_admission_key,
)

QUEUE = Queue()
ORACLE = LegalityOracle(QUEUE)

EVENTS = (
    event("Enq", ("a",)),
    event("Enq", ("b",)),
    event("Deq", (), ok("a")),
    event("Deq", (), ok("b")),
    event("Deq", (), signal("Empty")),
)


@st.composite
def behavioral_histories_strategy(draw):
    """Random well-formed behavioral histories over two actions."""
    entries = [Begin("A"), Begin("B")]
    active = {"A", "B"}
    steps = draw(st.lists(st.tuples(st.sampled_from("AB"), st.integers(0, 6)),
                          max_size=6))
    for action, choice in steps:
        if action not in active:
            continue
        if choice < len(EVENTS):
            entries.append(Op(EVENTS[choice], action))
        else:
            entries.append(Commit(action))
            active.discard(action)
    return BehavioralHistory(entries)


class TestSerializationInvariants:
    @given(behavioral_histories_strategy())
    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    def test_hybrid_serials_subset_of_dynamic(self, history):
        # Commit order is compatible with the precedes order (Section 5),
        # so every hybrid serialization is a dynamic serialization — the
        # reason Dynamic(T) ⊆ Hybrid(T) as behavioral specifications.
        dynamic = set(dynamic_serializations(history))
        hybrid = set(hybrid_serializations(history))
        assert hybrid <= dynamic

    @given(behavioral_histories_strategy())
    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    def test_static_serial_is_some_hybrid_serial_when_unordered(self, history):
        # Every static serialization uses some total order of the same
        # committed set, so it appears among hybrid serializations
        # whenever no commit order contradicts it; with all actions
        # active, the sets coincide up to ordering freedom.
        if not history.commit_order:
            assert set(static_serializations(history)) <= set(
                hybrid_serializations(history)
            )

    @given(behavioral_histories_strategy())
    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    def test_precedes_is_acyclic(self, history):
        pairs = precedes_pairs(history)
        # Follows from linearity of the history: the committing action's
        # commit precedes the other's later op.
        assert all((b, a) not in pairs for (a, b) in pairs)

    @given(behavioral_histories_strategy())
    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    def test_membership_monotone_under_prefix(self, history):
        prop = HybridAtomicity(QUEUE, ORACLE)
        if prop.admits(history):
            for length in range(len(history) + 1):
                assert prop.admits(history.prefix(length))

    @given(behavioral_histories_strategy())
    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    def test_dynamic_membership_implies_hybrid(self, history):
        dynamic = DynamicAtomicity(QUEUE, ORACLE)
        hybrid = HybridAtomicity(QUEUE, ORACLE)
        if dynamic.admits(history):
            assert hybrid.admits(history)

    @given(behavioral_histories_strategy())
    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    def test_online_property_commits_stay_admitted(self, history):
        prop = StaticAtomicity(QUEUE, ORACLE)
        if prop.admits(history):
            committed = commit_all(history, sorted(history.active))
            assert prop.admits(committed)


SERIAL = st.lists(st.sampled_from(EVENTS), max_size=5).map(tuple)


class TestEquivalenceSoundness:
    @given(SERIAL, SERIAL)
    @settings(max_examples=200)
    def test_frontier_equivalence_matches_observation(self, first, second):
        if ORACLE.equivalent(first, second):
            assert distinguishing_suffix(ORACLE, first, second, depth=2) is None

    @given(SERIAL)
    @settings(max_examples=100)
    def test_equivalence_reflexive_on_legal(self, history):
        assert ORACLE.equivalent(history, history) == ORACLE.is_legal(history)


class TestQuorumInvariants:
    @given(st.integers(2, 5))
    @settings(max_examples=10, deadline=None)
    def test_every_threshold_choice_satisfies_relation(self, n_sites):
        relation = known.ground(QUEUE, known.QUEUE_STATIC, 5, ORACLE)
        operations = ("Deq", "Enq")
        for choice in valid_threshold_choices(relation, n_sites, operations):
            assert satisfies(choice.to_assignment(), relation)


# -- proof obligations of the admission machinery ----------------------------
#
# ``LocalAtomicityProperty.admits`` skips the check for an appended
# Begin/Commit/Abort and shares one verdict among histories ``H·op`` with
# equal ``admission_key(H, op)``, a key it reads off ``H``'s parts;
# ``BehavioralHistory.append`` checks one entry against its parent's
# state.  Each shortcut is sound only if the matching statement below
# holds on *every* history, so they are tested on random ones, over four
# types and all three properties.

TYPES = {dt.name: dt for dt in (Queue(), PROM(), FlagSet(), DoubleBuffer())}
ORACLES = {name: LegalityOracle(dt) for name, dt in TYPES.items()}
ALPHABETS = {name: event_alphabet(dt, 3, ORACLES[name]) for name, dt in TYPES.items()}
PROPERTIES = (StaticAtomicity, HybridAtomicity, DynamicAtomicity)
LABELS = "ABC"


@st.composite
def wellformed_entries(draw, max_steps=9, name=None):
    """``(type name, entries)``: Begins anywhere, Commits and Aborts too.

    Most operations answer as one copy would in execution order, so that
    admitted prefixes grow past the first few entries; the rest take any
    event of the alphabet, legal there or not.
    """
    if name is None:
        name = draw(st.sampled_from(sorted(TYPES)))
    alphabet, oracle = ALPHABETS[name], ORACLES[name]
    invocations = sorted({ev.inv for ev in alphabet}, key=str)
    steps = draw(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 2), st.integers(0, 23)),
            max_size=max_steps,
        )
    )
    entries, begun, active, executed = [], [], [], ()
    for kind, which, choice in steps:
        if kind == 0 or not active:
            if len(begun) < len(LABELS):
                begun.append(LABELS[len(begun)])
                active.append(begun[-1])
                entries.append(Begin(begun[-1]))
            continue
        action = active[which % len(active)]
        if kind >= 7:
            entries.append((Commit if kind <= 8 else Abort)(action))
            active.remove(action)
            continue
        chosen = alphabet[choice % len(alphabet)]
        if kind <= 5:
            invocation = invocations[choice % len(invocations)]
            responses = sorted(oracle.responses(executed, invocation), key=str)
            if responses:
                chosen = Event(invocation, responses[choice % len(responses)])
        entries.append(Op(chosen, action))
        executed += (chosen,)
    return name, entries


def _longest_admitted_prefix(prop, entries):
    history = BehavioralHistory()
    for entry in entries:
        extended = history.append(entry)
        if not prop.admits(extended):
            break
        history = extended
    return history


#: An appended operation's choice: which active action, which event.
OP_PICKS = st.tuples(st.integers(0, 3), st.integers(0, 23))


def _keyed(name, entries, picks):
    """``(entries, op)``: the drawn entries, a fresh action begun if none
    is left active, and an operation of one of the active actions."""
    history = BehavioralHistory(entries)
    if not history.active:
        entries = entries + [Begin("D")]
        history = history.append(entries[-1])
    which, choice = picks
    active = sorted(history.active)
    alphabet = ALPHABETS[name]
    return entries, Op(alphabet[choice % len(alphabet)], active[which % len(active)])


def _relabelled(entries, mapping):
    return [
        Op(entry.event, mapping[entry.action])
        if isinstance(entry, Op)
        else type(entry)(mapping[entry.action])
        for entry in entries
    ]


class TestAdmissionProofObligations:
    @given(wellformed_entries(), st.data())
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    def test_admitted_history_stays_checked_after_a_non_op_entry(self, drawn, data):
        # (i) every serialization of H·x, x not an Op, is one of H.
        name, entries = drawn
        for prop_type in PROPERTIES:
            prop = prop_type(TYPES[name], ORACLES[name])
            history = _longest_admitted_prefix(prop, entries)
            fresh = next(a for a in LABELS + "D" if a not in history.actions)
            choices = [Begin(fresh)] + [
                kind(action) for action in sorted(history.active) for kind in (Commit, Abort)
            ]
            extended = history.append(data.draw(st.sampled_from(choices)))
            assert prop.check_history(extended)
            assert prop.admits(extended)

    @given(wellformed_entries(), wellformed_entries(), OP_PICKS, OP_PICKS)
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    def test_equal_admission_keys_mean_equal_checks(self, first, second, one, two):
        # (ii) on unrelated histories of one type, each extended by an op.
        if first[0] != second[0]:
            second = (first[0], second[1][: len(second[1]) // 2] or first[1])
        name = first[0]
        keyed = [
            (BehavioralHistory(entries), op)
            for entries, op in (_keyed(name, first[1], one), _keyed(name, second[1], two))
        ]
        for prop_type in PROPERTIES:
            prop = prop_type(TYPES[name], ORACLES[name])
            keys = [prop.admission_key(history, op) for history, op in keyed]
            if keys[0] == keys[1]:
                checks = [prop.check_history(history.append(op)) for history, op in keyed]
                assert checks[0] == checks[1]

    @given(wellformed_entries(), st.permutations("PQR"), OP_PICKS)
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    def test_relabelling_keeps_key_and_check(self, drawn, names, picks):
        # (ii) static and hybrid keys carry no label at all; the dynamic
        # key is labelled, and its check is label-blind all the same.
        name, entries = drawn
        entries, op = _keyed(name, entries, picks)
        mapping = dict(zip(LABELS + "D", [*names, "S"]))
        history = BehavioralHistory(entries)
        renamed = BehavioralHistory(_relabelled(entries, mapping))
        renamed_op = Op(op.event, mapping[op.action])
        for prop_type in PROPERTIES:
            prop = prop_type(TYPES[name], ORACLES[name])
            assert prop.check_history(history.append(op)) == prop.check_history(
                renamed.append(renamed_op)
            )
            if prop_type is not DynamicAtomicity:
                assert prop.admission_key(history, op) == prop.admission_key(
                    renamed, renamed_op
                )

    @given(wellformed_entries(), st.integers(0, 8), OP_PICKS)
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    def test_interleaving_of_active_actions_keeps_key_and_check(self, drawn, start, picks):
        # (ii) swap two adjacent operations of different actions.
        name, entries = drawn
        entries, op = _keyed(name, entries, picks)
        for at in range(start, len(entries) - 1):
            one, two = entries[at], entries[at + 1]
            if isinstance(one, Op) and isinstance(two, Op) and one.action != two.action:
                break
        else:
            return
        history = BehavioralHistory(entries)
        swapped = BehavioralHistory(entries[:at] + [two, one] + entries[at + 2 :])
        for prop_type in PROPERTIES:
            prop = prop_type(TYPES[name], ORACLES[name])
            assert prop.admission_key(history, op) == prop.admission_key(swapped, op)
            assert prop.check_history(history.append(op)) == prop.check_history(
                swapped.append(op)
            )


class TestKeyOfAnExtension:
    @given(wellformed_entries(max_steps=12), st.integers(0, 23))
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    def test_the_key_of_h_op_is_the_whole_history_key(self, drawn, start):
        # ``admission_key(H, op)``, from ``H``'s parts, against the key
        # read off ``H·op`` itself: every prefix ``H`` of a random history
        # (aborts and idle actions included), each of its active actions,
        # four events of the alphabet; one property object throughout, so
        # its parts memo serves runs of ops and is replaced between them.
        name, entries = drawn
        alphabet = ALPHABETS[name]
        events = [alphabet[(start + k) % len(alphabet)] for k in range(4)]
        for prop_type in PROPERTIES:
            prop = prop_type(TYPES[name], ORACLES[name])
            history = BehavioralHistory()
            for entry in entries + [None]:
                for action in sorted(history.active):
                    for event in events:
                        op = Op(event, action)
                        assert prop.admission_key(history, op) == reference_admission_key(
                            prop, history.append(op)
                        )
                if entry is not None:
                    history = history.append(entry)


def _literally_admitted(prop, history):
    """The largest prefix-closed specification, literally: every prefix
    passes the property check."""
    return all(
        prop.check_history(BehavioralHistory(history.entries[:length]))
        for length in range(len(history) + 1)
    )


class TestSteppingTheTrie:
    @given(wellformed_entries(max_steps=12), st.integers(0, 12), st.booleans(), st.data())
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    def test_a_step_decides_what_admits_decides(self, drawn, split, warm, data):
        # ``step(decided(H), H, x)`` against ``admits(H·x)`` on a fresh
        # property and the literal definition, entry by entry from a
        # prefix that may be rejected, on a fresh or a warmed trie.
        name, entries = drawn
        others = [
            BehavioralHistory(more)
            for _name, more in data.draw(
                st.lists(wellformed_entries(name=name), max_size=4 if warm else 0)
            )
        ]
        for prop_type in PROPERTIES:
            prop = prop_type(TYPES[name], ORACLES[name])
            for other in others:
                prop.admits(other)
            history = BehavioralHistory(entries[:split])
            node = prop.decided(history)
            assert (node is not None) == _literally_admitted(prop, history)
            for entry in entries[split:]:
                extended = history.append(entry)
                expected = prop_type(TYPES[name], ORACLES[name]).admits(extended)
                assert expected == _literally_admitted(prop, extended)
                if node is None:
                    assert not expected, "an extension of a rejected history"
                else:
                    node = prop.step(node, history, entry)
                    assert (node is not None) == expected
                assert prop.decided(extended) is node
                history = extended


def _facts(history):
    return (
        history.entries, hash(history), history.begin_order, history.commit_order,
        history.committed, history.aborted, history.active, history.actions,
        {action: history.events_of(action) for action in LABELS + "Z"},
    )


def _refusal(build):
    with pytest.raises(SpecificationError) as refused:
        build()
    return str(refused.value)


class TestAppendMatchesConstruction:
    @given(wellformed_entries(max_steps=12))
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    def test_appended_history_equals_the_constructed_one(self, drawn):
        # (iii) one entry checked against the parent's state, same history.
        _name, entries = drawn
        grown = BehavioralHistory()
        for length, entry in enumerate(entries, start=1):
            parent, grown = grown, grown.append(entry)
            built = BehavioralHistory(entries[:length])
            assert grown == built and built == grown
            assert _facts(grown) == _facts(built)
            assert grown.prefix(length - 1) is parent
            assert built.prefix(length - 1) == parent

    @given(wellformed_entries(max_steps=12))
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    def test_ill_formed_appends_are_refused_in_the_same_words(self, drawn):
        name, entries = drawn
        history = BehavioralHistory(entries)
        event = ALPHABETS[name][0]
        ill_formed = [Op(event, "Z"), Commit("Z"), Abort("Z")]  # before its Begin
        ill_formed += [Begin(action) for action in history.begin_order]  # twice
        for ended in sorted(history.committed | history.aborted):  # after Commit, Abort
            ill_formed += [Op(event, ended), Commit(ended), Abort(ended)]
        for entry in ill_formed:
            said = _refusal(lambda: history.append(entry))
            assert said == _refusal(lambda: BehavioralHistory(entries + [entry]))
            assert said.startswith(f"entry {len(entries)}: action {entry.action} ")
