"""Unit tests for Definition 2 verification (arenas and searches)."""

import itertools

import pytest

from repro.atomicity.explore import ExplorationBounds
from repro.atomicity.properties import (
    DynamicAtomicity,
    HybridAtomicity,
    StaticAtomicity,
)
from repro.compute.artifacts import artifacts_for
from repro.core.theorems import _prom_events
from repro.dependency import known
from repro.dependency.relation import DependencyRelation
from repro.dependency.dynamic_dep import minimal_dynamic_dependency
from repro.dependency.verify import (
    VerificationArena,
    VerificationBounds,
    find_counterexample,
    is_dependency_relation,
    is_minimal_relation,
    minimal_extensions,
    required_pairs,
)
from repro.dependency.static_dep import minimal_static_dependency
from repro.histories.events import event, ok
from repro.spec.enumerate import event_alphabet
from repro.spec.legality import LegalityOracle
from repro.types import PROM, FlagSet, Queue, Register, standard_types
from tests.helpers import FLAGSET_EVENTS, probe_relations
from tests.oracles import (
    reference_arena_entries,
    reference_find_counterexample,
    reference_is_minimal_relation,
    reference_minimal_extensions,
    reference_required_pairs,
)


@pytest.fixture(scope="module")
def register_arena():
    return _static_register(VerificationArena)


class TestArena:
    def test_arena_collects_rejected_appends(self, register_arena):
        assert register_arena.entries, "some appends must be rejected"
        prop = register_arena.property
        for history, rejected in register_arena.entries:
            assert prop.admits(history)
            for op in rejected:
                assert not prop.admits(history.append(op))

    def test_universe_pairs_cover_alphabet(self, register_arena):
        total = register_arena.universe_pairs()
        assert len(total) == len(register_arena.invocations) * len(
            register_arena.append_events
        )


class TestVerification:
    def test_total_relation_always_valid(self, register_arena):
        total = register_arena.universe_pairs()
        assert is_dependency_relation(total, register_arena)

    def test_empty_relation_invalid_for_register(self, register_arena):
        empty = DependencyRelation()
        counterexample = find_counterexample(empty, register_arena)
        assert counterexample is not None
        text = counterexample.explain()
        assert "H =" in text and "closed subhistory" in text

    def test_minimal_static_relation_verifies(self, register_arena):
        register = Register(items=("x",))
        relation = minimal_static_dependency(register, 3)
        assert is_dependency_relation(relation, register_arena)

    def test_required_pairs_within_minimal(self, register_arena):
        register = Register(items=("x",))
        relation = minimal_static_dependency(register, 3)
        required = required_pairs(register_arena)
        assert required <= relation

    def test_required_pairs_relation_is_valid_for_static(self, register_arena):
        # For static atomicity the required core IS the unique minimal
        # relation, hence itself valid.
        required = required_pairs(register_arena)
        assert is_dependency_relation(required, register_arena)

    def test_minimality_check(self, register_arena):
        required = required_pairs(register_arena)
        assert is_minimal_relation(required, register_arena)
        total = register_arena.universe_pairs()
        if len(total) > len(required):
            assert not is_minimal_relation(total, register_arena)

    def test_register_needs_read_write_intersection(self, register_arena):
        # The classic Gifford constraint: reads must see writes.
        required = required_pairs(register_arena)
        ops = {(s.inv_op, s.ev_op, s.ev_kind) for s in required.schema_pairs()}
        assert ("Read", "Write", "Ok") in ops


class CountingArena(VerificationArena):
    """Counts the entries the build generator has been asked for."""

    produced = 0

    def _build(self):
        for entry in super()._build():
            self.produced += 1
            yield entry


def _static_register(arena_type=CountingArena):
    register = Register(items=("x",))
    return arena_type(
        StaticAtomicity(register, LegalityOracle(register)),
        VerificationBounds(ExplorationBounds(max_ops=3, max_actions=3)),
    )


def _hybrid_prom(arena_type=CountingArena):
    prom = PROM()
    return arena_type(
        HybridAtomicity(prom, LegalityOracle(prom)),
        VerificationBounds(
            ExplorationBounds(max_ops=3, max_actions=4, events=_prom_events())
        ),
    )


def _hybrid_flagset(arena_type=CountingArena):
    flagset = FlagSet()
    events = (
        event("Open"),
        event("Shift", (1,)),
        event("Shift", (2,)),
        event("Shift", (3,)),
        event("Close", (), ok(False)),
        event("Close", (), ok(True)),
    )
    return arena_type(
        HybridAtomicity(flagset, LegalityOracle(flagset)),
        VerificationBounds(
            ExplorationBounds(max_ops=3, max_actions=2, events=events)
        ),
    )


ARENAS = [_static_register, _hybrid_prom, _hybrid_flagset]


class TestOnDemandArena:
    @pytest.mark.parametrize("build", ARENAS)
    def test_entries_equal_the_eager_construction(self, build):
        arena = build()
        assert arena.produced == 0, "constructing an arena enumerates nothing"
        expected = reference_arena_entries(arena)
        assert expected
        assert list(arena.entries) == expected
        assert list(arena.entries) == expected, "a second pass replays the first"
        assert arena.produced == len(expected)

    @pytest.mark.parametrize("build", ARENAS)
    def test_alternating_iterators_share_one_enumeration(self, build):
        arena = build()
        first, second = iter(arena.entries), iter(arena.entries)
        seen_first, seen_second = [], []
        for index in itertools.count():
            # Each iterator takes the lead in turn: one draws a new
            # entry, the other is replayed it.
            lead, follow = (
                (first, second) if index % 2 == 0 else (second, first)
            )
            ahead = next(lead, None)
            behind = next(follow, None)
            if ahead is None:
                assert behind is None
                break
            seen_first.append(ahead)
            seen_second.append(behind)
        assert seen_first == seen_second
        assert arena.produced == len(seen_first), "each entry is built once"
        single = build()
        assert list(single.entries) == seen_first
        assert len(arena.property._cache) == len(single.property._cache), (
            "the universe was enumerated once, not once per iterator"
        )

    @pytest.mark.parametrize("build", ARENAS)
    def test_early_exit_leaves_the_rest_of_the_universe_unexamined(self, build):
        arena = build(VerificationArena)
        memo = arena.property._cache
        assert find_counterexample(DependencyRelation(), arena) is not None
        after_search = len(memo)
        total = arena.universe_pairs()
        assert is_dependency_relation(total, arena), "a valid relation completes it"
        assert after_search < len(memo)
        fresh = build(VerificationArena)
        assert is_dependency_relation(total, fresh)
        assert list(arena.entries) == list(fresh.entries)

    @pytest.mark.parametrize("build", ARENAS)
    def test_truth_value_pulls_at_most_one_entry(self, build):
        arena = build()
        assert arena.entries
        assert arena.produced == 1
        assert arena.entries
        assert arena.produced == 1


def test_theorem_5_searched_counterexample_is_pinned():
    """Golden value: the first Definition 2 violation in entry order.

    ``Write(x) A · Seal B · Write(y) A · Commit A`` with ``Read→Ok(x) B``
    appended, the view dropping ``Write(y)``.  An arena that enumerated
    in a different order would report a different (equally genuine)
    witness; this pins the order.
    """
    prom = PROM()
    oracle = LegalityOracle(prom)
    arena = VerificationArena(
        StaticAtomicity(prom, oracle),
        VerificationBounds(
            ExplorationBounds(max_ops=3, max_actions=4, events=_prom_events())
        ),
    )
    relation = known.ground(prom, known.PROM_HYBRID, 5, oracle)
    found = find_counterexample(relation, arena)
    assert str(found.history).splitlines() == [
        "Begin A",
        "Begin B",
        "Begin C",
        "Begin D",
        "Write('x');Ok() A",
        "Seal();Ok() B",
        "Write('y');Ok() A",
        "Commit A",
    ]
    assert str(found.appended) == "Read();Ok('x') B"
    assert found.kept_ops == frozenset({4, 5})
    assert str(found.subhistory).splitlines() == [
        "Begin A",
        "Begin B",
        "Begin C",
        "Begin D",
        "Write('x');Ok() A",
        "Seal();Ok() B",
        "Commit A",
    ]


def _arena(prop, **bounds):
    return VerificationArena(prop, VerificationBounds(ExplorationBounds(**bounds)))


def _battery_relations(datatype, *schemas, events=None):
    return [known.ground(datatype, schema, 5, events=events) for schema in schemas]


#: name → (arena, the relations the theorem battery puts to such an arena).
DIFFERENTIAL = {
    "static-register": lambda: (
        _static_register(VerificationArena),
        [minimal_static_dependency(Register(items=("x",)), 3)],
    ),
    "hybrid-prom": lambda: (
        _hybrid_prom(VerificationArena),
        _battery_relations(PROM(), known.PROM_HYBRID)
        + [minimal_static_dependency(PROM(), 3)],
    ),
    "hybrid-flagset": lambda: (
        _hybrid_flagset(VerificationArena),
        _battery_relations(
            FlagSet(), known.FLAGSET_CORE, known.FLAGSET_HYBRID_A,
            known.FLAGSET_HYBRID_B, events=FLAGSET_EVENTS,
        ),
    ),
    "dynamic-queue": lambda: (
        _arena(DynamicAtomicity(Queue()), max_ops=2, max_actions=3),
        [minimal_dynamic_dependency(Queue(), 3), minimal_static_dependency(Queue(), 3)],
    ),
    "static-register-aborts": lambda: (
        _arena(
            StaticAtomicity(Register(items=("x",))),
            max_ops=3, max_actions=2, include_aborts=True,
        ),
        [minimal_static_dependency(Register(items=("x",)), 3)],
    ),
}


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_search_returns_the_literal_first_counterexample(name):
    """Same ``Counterexample`` — history, view, kept set, append — or ``None``.

    One arena serves every relation, so each search after the first
    answers mostly from the view verdicts the earlier ones left.
    """
    arena, battery = DIFFERENTIAL[name]()
    entries = reference_arena_entries(arena)
    reference_prop = type(arena.property)(arena.property.datatype)
    relations = probe_relations(arena.invocations, arena.append_events) + battery
    outcomes = set()
    for relation in relations:
        expected = reference_find_counterexample(relation, entries, reference_prop)
        assert find_counterexample(relation, arena) == expected
        outcomes.add(expected is None)
    assert outcomes == {True, False}, "valid and refuted relations both met"
    assert any(
        history.aborted for history, _ in entries
    ) == arena.bounds.exploration.include_aborts


def _theorem_6_cell():
    arena = _arena(StaticAtomicity(Queue()), max_ops=3, max_actions=3)
    total = arena.universe_pairs()
    searched = artifacts_for(Queue(), 4, LegalityOracle(Queue())).static
    return arena, [searched] + [total.without(pair) for pair in sorted(total.pairs, key=str)]


#: name → (arena, its theorem's relations), at the bounds
#: ``core/theorems.py`` uses: Theorem 5's static search, Theorem 6 with
#: every single-pair deletion ``required_pairs`` searches, and the
#: FlagSet (Theorem 5's hybrid arena is ``DIFFERENTIAL["hybrid-prom"]``).
THEOREM_CELLS = {
    "thm5-static": lambda: (
        _arena(StaticAtomicity(PROM()), max_ops=3, max_actions=4, events=_prom_events()),
        _battery_relations(PROM(), known.PROM_HYBRID),
    ),
    "thm6": _theorem_6_cell,
    "flagset": lambda: (
        _arena(HybridAtomicity(FlagSet()), max_ops=4, max_actions=2, events=FLAGSET_EVENTS),
        _battery_relations(
            FlagSet(), known.FLAGSET_CORE, known.FLAGSET_HYBRID_A,
            known.FLAGSET_HYBRID_B, events=FLAGSET_EVENTS,
        ),
    ),
}


@pytest.mark.parametrize("name", THEOREM_CELLS)
def test_stepped_arena_and_search_match_the_root_walks(name):
    """At the battery's bounds, the arena that steps trie nodes holds the
    entries ``admits`` per candidate finds, and each search returns the
    counterexample (or ``None``) the literal search returns."""
    arena, relations = THEOREM_CELLS[name]()
    entries = reference_arena_entries(arena)
    reference_prop = type(arena.property)(arena.property.datatype)
    for relation in relations:
        expected = reference_find_counterexample(relation, entries, reference_prop)
        assert find_counterexample(relation, arena) == expected
    assert list(arena.entries) == entries


# -- one pass for every one-pair deletion ---------------------------------------

PROPERTY_KINDS = (StaticAtomicity, HybridAtomicity, DynamicAtomicity)


def _deletion_cell(datatype, kind):
    """An arena at 2 operations and 3 actions.  Directory is keyed on
    ``'j'`` alone: its two-key alphabet grounds 312 pairs, one whole-arena
    reference search each, where one key grounds 78."""
    events = None
    if datatype.name == "Directory":
        events = tuple(e for e in event_alphabet(datatype, 2) if e.inv.args[0] == "j")
    return lambda: _arena(kind(datatype), max_ops=2, max_actions=3, events=events)


#: id → a builder of fresh arenas: every library type under each
#: property, and the battery's hybrid PROM and FlagSet arenas at 3 ops.
DELETION_CELLS = {
    f"{datatype.name}-{kind.name}": _deletion_cell(datatype, kind)
    for datatype in standard_types()
    for kind in PROPERTY_KINDS
}
DELETION_CELLS["PROM-hybrid-3ops"] = lambda: _hybrid_prom(VerificationArena)
DELETION_CELLS["FlagSet-hybrid-3ops"] = lambda: _hybrid_flagset(VerificationArena)


@pytest.mark.parametrize("name", DELETION_CELLS)
def test_one_pass_deletions_match_one_search_per_pair(name):
    """``required_pairs`` and ``is_minimal_relation`` answer what one
    whole-arena search per deleted pair answers, on an arena of their own
    (no view verdict shared): the required core, and minimality of the
    core and of the total relation."""
    arena, reference = DELETION_CELLS[name](), DELETION_CELLS[name]()
    required = required_pairs(arena)
    assert required == reference_required_pairs(reference)
    total = arena.universe_pairs()
    for relation in (required, total):
        assert is_minimal_relation(relation, arena) == reference_is_minimal_relation(
            relation, reference
        )


@pytest.mark.parametrize("max_ops", [3, 4])
def test_essential_pairs_match_one_search_per_pair(max_ops):
    """``minimal_extensions`` over the FlagSet core (the Section 4
    search) yields what testing each added pair's deletion on its own
    yields, at one and two added pairs."""
    arena = _arena(
        HybridAtomicity(FlagSet()), max_ops=max_ops, max_actions=2, events=FLAGSET_EVENTS
    )
    reference = _arena(
        HybridAtomicity(FlagSet()), max_ops=max_ops, max_actions=2, events=FLAGSET_EVENTS
    )
    core = known.ground(FlagSet(), known.FLAGSET_CORE, events=FLAGSET_EVENTS)
    shifts = sorted(
        (
            pair
            for pair in arena.universe_pairs().pairs
            if pair[0].op == "Shift" and pair[1].inv.op == "Shift"
        ),
        key=str,
    )
    found = list(minimal_extensions(core, shifts, arena, max_added=2))
    assert found == reference_minimal_extensions(core, shifts, reference, max_added=2)
    assert found, "the two single-pair completions at least"
