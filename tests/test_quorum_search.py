"""Tests for the threshold-assignment search: the PROM example end to end,
and the quorum chooser ``cheapest_assignment``."""

import pytest

from repro.dependency import known
from repro.dependency.relation import DependencyRelation
from repro.errors import QuorumError
from repro.quorum import constraints
from repro.quorum.availability import binomial_tail
from repro.quorum.constraints import satisfies
from repro.quorum.coterie import EmptyCoterie, SubsetThresholdCoterie
from repro.quorum.search import (
    ThresholdChoice,
    best_threshold_assignment,
    cheapest_assignment,
    embed_choice,
    needed_thresholds,
    schema_constraints,
    threshold_frontier,
    valid_threshold_choices,
)
from repro.types import PROM, Queue

OPS = ("Read", "Seal", "Write")


@pytest.fixture(scope="module")
def prom_relations():
    prom = PROM()
    return (
        known.ground(prom, known.PROM_HYBRID, 5),
        known.ground(prom, known.PROM_STATIC, 5),
    )


class TestSchemaConstraints:
    def test_hybrid_constraint_classes(self, prom_relations):
        hybrid, _static = prom_relations
        constraints = schema_constraints(hybrid)
        assert ("Seal", ("Write", "Ok")) in constraints
        assert ("Read", ("Seal", "Ok")) in constraints
        assert ("Read", ("Write", "Ok")) not in constraints

    def test_static_adds_read_write_coupling(self, prom_relations):
        _hybrid, static = prom_relations
        constraints = schema_constraints(static)
        assert ("Read", ("Write", "Ok")) in constraints
        assert ("Write", ("Read", "Ok")) in constraints


class TestValidChoices:
    def test_every_choice_satisfies_relation(self, prom_relations):
        hybrid, _static = prom_relations
        for choice in valid_threshold_choices(hybrid, 3, OPS):
            assert satisfies(choice.to_assignment(), hybrid)

    def test_paper_headline_choice_exists_under_hybrid(self, prom_relations):
        """Hybrid atomicity permits Read/Seal/Write quorums of 1/n/1."""
        hybrid, _static = prom_relations
        n = 5
        found = any(
            choice.initial_of("Read") == 1
            and choice.initial_of("Write") == 1
            and choice.final_of("Write") <= 1
            for choice in valid_threshold_choices(hybrid, n, OPS)
        )
        assert found

    def test_static_forces_write_to_n_when_read_is_one(self, prom_relations):
        """Static atomicity requires Read/Seal/Write = 1/n/n."""
        _hybrid, static = prom_relations
        n = 5
        for choice in valid_threshold_choices(static, n, OPS):
            if choice.initial_of("Read") == 1:
                assert choice.final_of("Write") == n


class TestFrontier:
    def test_hybrid_dominates_static_at_max_read(self, prom_relations):
        hybrid, static = prom_relations
        n, p = 5, 0.9
        hybrid_frontier = threshold_frontier(hybrid, n, OPS, p)
        static_frontier = threshold_frontier(static, n, OPS, p)

        def best_write_given_full_read(frontier):
            return max(
                (
                    dict(vector)["Write"]
                    for _choice, vector in frontier
                    if dict(vector)["Read"] == pytest.approx(1 - 0.1**n)
                ),
                default=0.0,
            )

        assert best_write_given_full_read(hybrid_frontier) > best_write_given_full_read(
            static_frontier
        )

    def test_frontier_at_certain_probabilities(self, prom_relations):
        for relation in prom_relations:
            for p in (0.0, 1.0):
                frontier = threshold_frontier(relation, 3, OPS, p)
                assert frontier
                for _choice, vector in frontier:
                    assert all(v in (0.0, 1.0) for _op, v in vector)

    def test_frontier_points_not_dominated(self, prom_relations):
        hybrid, _static = prom_relations
        frontier = threshold_frontier(hybrid, 3, OPS, 0.9)
        vectors = [tuple(v for _op, v in vector) for _choice, vector in frontier]
        for i, first in enumerate(vectors):
            for j, second in enumerate(vectors):
                if i != j:
                    assert not (
                        all(s >= f for s, f in zip(second, first))
                        and any(s > f for s, f in zip(second, first))
                    )


class TestBestAssignment:
    def test_read_only_workload_prefers_single_site_reads(self, prom_relations):
        hybrid, _static = prom_relations
        choice, score = best_threshold_assignment(
            hybrid, 5, OPS, 0.9, weights={"Read": 1.0}
        )
        assert choice.initial_of("Read") == 1
        assert 0.0 < score <= 1.0

    def test_hybrid_beats_static_on_mixed_workload(self, prom_relations):
        hybrid, static = prom_relations
        weights = {"Read": 5.0, "Seal": 0.5, "Write": 5.0}
        _choice_h, score_h = best_threshold_assignment(hybrid, 5, OPS, 0.9, weights)
        _choice_s, score_s = best_threshold_assignment(static, 5, OPS, 0.9, weights)
        assert score_h > score_s

    def test_unscored_weights_do_not_dilute_the_score(self, prom_relations):
        hybrid, _static = prom_relations
        choice, score = best_threshold_assignment(hybrid, 3, OPS, 0.9)
        extra = best_threshold_assignment(
            hybrid,
            3,
            OPS,
            0.9,
            weights={"Read": 1.0, "Seal": 1.0, "Write": 1.0, "Other": 3.0},
        )
        assert extra == (choice, score)
        assert score == pytest.approx(0.972, abs=5e-4)

    def test_non_positive_weight_total_rejected(self, prom_relations):
        hybrid, _static = prom_relations
        with pytest.raises(QuorumError, match="positive total"):
            best_threshold_assignment(
                hybrid, 3, OPS, 0.9, weights={op: 0.0 for op in OPS}
            )
        with pytest.raises(QuorumError, match="positive total"):
            best_threshold_assignment(hybrid, 3, OPS, 0.9, weights={"Other": 1.0})


def _queue_relation(n=5):
    return known.ground(Queue(), known.QUEUE_STATIC, n)


def _choice(n, init_enq, init_deq, final_enq, final_deq):
    return ThresholdChoice(
        n_sites=n,
        initial=(("Deq", init_deq), ("Enq", init_enq)),
        final=((("Deq", "Ok"), final_deq), (("Enq", "Ok"), final_enq)),
    )


def _cheapest(relation, weights, replicas=tuple(range(5)), n_sites=5, **options):
    return cheapest_assignment(
        relation, Queue().operations(), weights, replicas, n_sites, **options
    )


def _ranked(relation, weights, n, p_up=0.9):
    """Every layout ``cheapest_assignment`` may pick, by its stated order:
    messages, round trips, higher availability, then ``describe()``."""
    ranked = []
    for choice in valid_threshold_choices(relation, n, Queue().operations()):
        if any(k == 0 for _op, k in choice.initial):
            continue
        messages = sum(
            w * (choice.initial_of(op) + choice.final_of(op))
            for op, w in weights.items()
        )
        trips = sum(
            w * ((choice.initial_of(op) > 0) + (choice.final_of(op) > 0))
            for op, w in weights.items()
        )
        availability = min(
            binomial_tail(n, k, p_up) for _op, k in needed_thresholds(choice)
        )
        ranked.append(((messages, trips, -availability, choice.describe()), choice))
    return [choice for _key, choice in sorted(ranked, key=lambda item: item[0])]


class TestCheapestAssignment:
    def test_the_mix_prices_messages(self):
        weights = {"Enq": 0.9, "Deq": 0.1}
        choice, assignment, messages = _cheapest(_queue_relation(), weights)
        # Enq-heavy: Enq reads one site; Deq pays for it.
        assert choice.initial_of("Enq") == 1
        assert messages == pytest.approx(
            sum(
                w * (choice.initial_of(op) + choice.final_of(op))
                for op, w in weights.items()
            )
        )
        assert constraints.satisfies(assignment, _queue_relation())

    @pytest.mark.parametrize(
        "weights",
        [{"Enq": 0.5, "Deq": 0.5}, {"Enq": 0.9, "Deq": 0.1}, {"Deq": 1.0}, {}],
        ids=["balanced", "enq-heavy", "deq-only", "empty"],
    )
    def test_ties_resolve_by_round_trips_availability_then_text(self, weights):
        """Balanced and empty mixes tie on messages across much of the
        spectrum; the winner is the first of the stated order."""
        for n in (3, 5):
            relation = _queue_relation(n)
            choice, _assignment, _messages = _cheapest(
                relation, weights, range(n), n
            )
            assert choice == _ranked(relation, weights, n)[0]

    def test_a_zero_final_is_a_one_phase_operation(self):
        choice, _assignment, _messages = _cheapest(
            DependencyRelation(), {"Enq": 1.0, "Deq": 1.0}
        )
        # No pair to meet: one-site reads, and no final quorum at all.
        assert choice.initial == (("Deq", 1), ("Enq", 1))
        assert {k for _cls, k in choice.final} == {0}

    def test_the_availability_floor_filters(self):
        weights = {"Enq": 0.9, "Deq": 0.1}
        relation = _queue_relation()
        assert _cheapest(relation, weights, availability_floor=1.1) is None
        cheap, _assignment, _messages = _cheapest(relation, weights)
        worst = min(
            binomial_tail(5, k, 0.9) for _op, k in needed_thresholds(cheap)
        )
        floored, _assignment, messages = _cheapest(
            relation, weights, availability_floor=worst + 1e-9
        )
        assert min(
            binomial_tail(5, k, 0.9) for _op, k in needed_thresholds(floored)
        ) > worst
        assert messages >= _cheapest(relation, weights)[2]

    def test_embed_choice_shapes(self):
        choice = _choice(5, 1, 5, 5, 0)
        full = embed_choice(choice, tuple(range(5)), 5)
        assert full.initial("Enq").members == frozenset(range(5))
        assert repr(full.initial("Enq")) == "ThresholdCoterie(1 of 5)"
        assert isinstance(full.final("Deq", "Ok"), EmptyCoterie)

        sub_choice = _choice(3, 1, 3, 3, 1)
        subset = embed_choice(sub_choice, (0, 2, 4), 5)
        initial = subset.initial("Deq")
        assert isinstance(initial, SubsetThresholdCoterie)
        assert initial.members == frozenset({0, 2, 4})
        assert initial.threshold == 3
        assert subset.n_sites == 5

    def test_embed_choice_rejects_replica_mismatch(self):
        with pytest.raises(ValueError):
            embed_choice(_choice(5, 3, 3, 3, 3), (0, 1, 2), 5)

    @pytest.mark.parametrize(
        "weights", [{"Enq": 0.9, "Deq": 0.1}, {"Enq": 0.1, "Deq": 0.9}]
    )
    def test_the_winner_is_embedded_over_the_replica_subset(self, weights):
        relation = known.ground(Queue(), known.QUEUE_STATIC, 3)
        choice, assignment, _messages = _cheapest(relation, weights, (4, 1, 2))
        assert choice.n_sites == 3 and assignment.n_sites == 5
        for coterie in (*assignment.initial_coteries(), *assignment.final_coteries()):
            if not isinstance(coterie, EmptyCoterie):
                assert isinstance(coterie, SubsetThresholdCoterie)
                assert coterie.members == frozenset({1, 2, 4})
        assert constraints.satisfies(assignment, relation)
