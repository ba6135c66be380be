"""Tests for the threshold-assignment search: the PROM example end to end."""

import pytest

from repro.dependency import known
from repro.errors import QuorumError
from repro.quorum.constraints import satisfies
from repro.quorum.search import (
    best_threshold_assignment,
    schema_constraints,
    threshold_frontier,
    valid_threshold_choices,
)
from repro.types import PROM

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
