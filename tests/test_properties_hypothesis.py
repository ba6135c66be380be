"""Property-based tests on core invariants (hypothesis).

These target the load-bearing algebraic facts:

* serialization generators agree with the definitions on random
  behavioral histories (dynamic ⊆ hybrid serializations as sets of
  serials when precedes is empty, etc.);
* equivalence via frontiers agrees with bounded observational
  equivalence on random serial histories;
* the dependency searches are monotone in their bound;
* valid threshold choices always satisfy their relation;
* the shortcuts of ``admits`` and ``BehavioralHistory.append`` are sound.
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
    dynamic_serializations,
    hybrid_serializations,
    precedes_pairs,
    static_serializations,
)
from repro.quorum.constraints import satisfies
from repro.quorum.search import valid_threshold_choices
from repro.spec.enumerate import event_alphabet
from repro.spec.legality import LegalityOracle
from repro.types import PROM, DoubleBuffer, FlagSet, Queue

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
            for prefix in history.prefixes():
                assert prop.admits(prefix)

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
            committed = history.commit_all(sorted(history.active))
            assert prop.admits(committed)


SERIAL = st.lists(st.sampled_from(EVENTS), max_size=5).map(tuple)


class TestEquivalenceSoundness:
    @given(SERIAL, SERIAL)
    @settings(max_examples=200)
    def test_frontier_equivalence_matches_observation(self, first, second):
        if ORACLE.equivalent(first, second):
            assert ORACLE.distinguishing_suffix(first, second, depth=2) is None

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
# Begin/Commit/Abort and shares one verdict among histories with equal
# ``admission_key``; ``BehavioralHistory.append`` checks one entry against
# its parent's state.  Each shortcut is sound only if the matching
# statement below holds on *every* history, so they are tested on random
# ones, over four types and all three properties.

TYPES = {dt.name: dt for dt in (Queue(), PROM(), FlagSet(), DoubleBuffer())}
ORACLES = {name: LegalityOracle(dt) for name, dt in TYPES.items()}
ALPHABETS = {name: event_alphabet(dt, 3, ORACLES[name]) for name, dt in TYPES.items()}
PROPERTIES = (StaticAtomicity, HybridAtomicity, DynamicAtomicity)
LABELS = "ABC"


@st.composite
def wellformed_entries(draw, max_steps=9):
    """``(type name, entries)``: Begins anywhere, Commits and Aborts too.

    Most operations answer as one copy would in execution order, so that
    admitted prefixes grow past the first few entries; the rest take any
    event of the alphabet, legal there or not.
    """
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

    @given(wellformed_entries(), wellformed_entries())
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    def test_equal_admission_keys_mean_equal_checks(self, first, second):
        # (ii) on unrelated histories of one type.
        if first[0] != second[0]:
            second = (first[0], second[1][: len(second[1]) // 2] or first[1])
        histories = [BehavioralHistory(entries) for _name, entries in (first, second)]
        for prop_type in PROPERTIES:
            prop = prop_type(TYPES[first[0]], ORACLES[first[0]])
            keys = [prop.admission_key(history) for history in histories]
            if keys[0] == keys[1]:
                assert prop.check_history(histories[0]) == prop.check_history(histories[1])

    @given(wellformed_entries(), st.permutations("PQR"))
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    def test_relabelling_keeps_key_and_check(self, drawn, names):
        # (ii) static and hybrid keys carry no label at all; the dynamic
        # key is labelled, and its check is label-blind all the same.
        name, entries = drawn
        history = BehavioralHistory(entries)
        renamed = BehavioralHistory(_relabelled(entries, dict(zip(LABELS, names))))
        for prop_type in PROPERTIES:
            prop = prop_type(TYPES[name], ORACLES[name])
            assert prop.check_history(history) == prop.check_history(renamed)
            if prop_type is not DynamicAtomicity:
                assert prop.admission_key(history) == prop.admission_key(renamed)

    @given(wellformed_entries(), st.integers(0, 8))
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    def test_interleaving_of_active_actions_keeps_key_and_check(self, drawn, start):
        # (ii) swap two adjacent operations of different actions.
        name, entries = drawn
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
            assert prop.admission_key(history) == prop.admission_key(swapped)
            assert prop.check_history(history) == prop.check_history(swapped)


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
