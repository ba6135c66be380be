"""Unit tests for coteries."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import QuorumError
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.coterie import (
    EmptyCoterie,
    ExplicitCoterie,
    SubsetThresholdCoterie,
    ThresholdCoterie,
    majority,
)
from repro.replication.reconfig import same_assignment


class TestExplicitCoterie:
    def test_minimality_enforced(self):
        coterie = ExplicitCoterie(3, [{0}, {0, 1}, {1, 2}])
        assert set(coterie.quorums()) == {frozenset({0}), frozenset({1, 2})}

    def test_has_quorum(self):
        coterie = ExplicitCoterie(3, [{0, 1}])
        assert coterie.has_quorum(frozenset({0, 1, 2}))
        assert not coterie.has_quorum(frozenset({0, 2}))

    def test_quorum_outside_universe_rejected(self):
        with pytest.raises(QuorumError):
            ExplicitCoterie(2, [{5}])

    def test_unsatisfiable_coterie(self):
        coterie = ExplicitCoterie(3, [])
        assert not coterie.has_quorum(frozenset({0, 1, 2}))
        assert coterie.smallest_quorum_size() is None

    def test_unsatisfiable_intersects_vacuously(self):
        empty_quorums = ExplicitCoterie(3, [])
        anything = ThresholdCoterie(3, 1)
        assert empty_quorums.intersects(anything)

    def test_smallest_quorum_size(self):
        coterie = ExplicitCoterie(4, [{0, 1, 2}, {3}])
        assert coterie.smallest_quorum_size() == 1


class TestThresholdCoterie:
    def test_quorums_are_all_k_subsets(self):
        coterie = ThresholdCoterie(3, 2)
        assert len(list(coterie.quorums())) == 3

    def test_has_quorum_counts_live(self):
        coterie = ThresholdCoterie(5, 3)
        assert coterie.has_quorum(frozenset({0, 2, 4}))
        assert not coterie.has_quorum(frozenset({0, 2}))

    def test_intersection_closed_form(self):
        n = 5
        for first in range(1, n + 1):
            for second in range(1, n + 1):
                fast = ThresholdCoterie(n, first).intersects(
                    ThresholdCoterie(n, second)
                )
                assert fast == (first + second > n)

    def test_zero_threshold_intersects_nothing(self):
        assert not ThresholdCoterie(3, 0).intersects(ThresholdCoterie(3, 3))

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(QuorumError):
            ThresholdCoterie(3, 4)

    def test_explicit_vs_threshold_intersection_agrees(self):
        threshold = ThresholdCoterie(4, 3)
        explicit = ExplicitCoterie(4, list(threshold.quorums()))
        other = ThresholdCoterie(4, 2)
        other_explicit = ExplicitCoterie(4, list(other.quorums()))
        assert threshold.intersects(other) == explicit.intersects(other_explicit)


class TestEmptyCoterie:
    def test_always_available(self):
        assert EmptyCoterie(3).has_quorum(frozenset())

    def test_intersects_nothing(self):
        assert not EmptyCoterie(3).intersects(ThresholdCoterie(3, 3))
        assert not ThresholdCoterie(3, 3).intersects(EmptyCoterie(3))

    def test_smallest_quorum_is_zero(self):
        assert EmptyCoterie(3).smallest_quorum_size() == 0


class TestMajority:
    def test_majority_sizes(self):
        assert majority(3).threshold == 2
        assert majority(4).threshold == 3
        assert majority(5).threshold == 3

    def test_majorities_self_intersect(self):
        for n in range(1, 8):
            assert majority(n).intersects(majority(n))


class TestGatherStop:
    """How a gather over a route stops for a coterie (``stop_for``)."""

    def test_a_threshold_covering_the_route_is_a_count(self):
        assert ThresholdCoterie(5, 3).stop_for((2, 3, 4, 0, 1)) == 3
        assert SubsetThresholdCoterie(5, {1, 3, 4}, 2).stop_for((3, 4, 1)) == 2
        assert SubsetThresholdCoterie(5, {1, 3, 4}, 2).stop_for((3,)) == 2

    def test_a_route_leaving_the_members_asks_has_quorum(self):
        coterie = SubsetThresholdCoterie(5, {1, 3, 4}, 2)
        assert coterie.stop_for((0, 3, 4, 1)) == coterie.has_quorum
        explicit = ExplicitCoterie(3, [{0, 1}, {1, 2}])
        assert explicit.stop_for((0, 1, 2)) == explicit.has_quorum

    def test_an_empty_quorum_gathers_nothing(self):
        assert EmptyCoterie(3).stop_for((0, 1, 2)) == 0
        assert ThresholdCoterie(3, 0).stop_for((0, 1, 2)) == 0
        assert SubsetThresholdCoterie(3, {1}, 0).stop_for((0, 1, 2)) == 0
        assert ExplicitCoterie(3, [set(), {1}]).stop_for((0, 1, 2)) == 0


@given(st.integers(1, 6), st.integers(1, 6), st.integers(2, 6))
def test_threshold_intersection_matches_enumeration(first, second, n):
    first = min(first, n)
    second = min(second, n)
    a, b = ThresholdCoterie(n, first), ThresholdCoterie(n, second)
    brute = all(q1 & q2 for q1 in a.quorums() for q2 in b.quorums())
    assert a.intersects(b) == brute


@st.composite
def subset_coteries(draw, n):
    members = draw(st.sets(st.integers(0, n - 1)))
    threshold = draw(st.integers(0, len(members)))
    return SubsetThresholdCoterie(n, members, threshold)


@st.composite
def subset_coterie_pairs(draw):
    n = draw(st.integers(1, 6))
    return draw(subset_coteries(n)), draw(subset_coteries(n))


@given(subset_coterie_pairs())
def test_subset_intersection_matches_enumeration(pair):
    # Overlapping unequal member sets included: the closed form must
    # agree with the quorum-pair enumeration it replaced.
    a, b = pair
    brute = all(q1 & q2 for q1 in a.quorums() for q2 in b.quorums())
    assert a.intersects(b) == brute
    assert b.intersects(a) == brute


def test_full_replication_is_the_all_sites_subset():
    full = ThresholdCoterie(5, 3)
    subset = SubsetThresholdCoterie(5, range(5), 3)
    assert isinstance(full, SubsetThresholdCoterie)
    assert full.members == subset.members
    assert repr(full) == repr(subset) == "ThresholdCoterie(3 of 5)"
    assert "SubsetThresholdCoterie" in repr(SubsetThresholdCoterie(5, (0, 2), 1))


@given(st.integers(1, 6), st.data())
def test_same_assignment_across_the_two_names(n, data):
    k = data.draw(st.integers(0, n))

    def assignment(coterie):
        return QuorumAssignment(
            n, {"Op": OperationQuorums(initial=coterie, final=coterie)}
        )

    full = assignment(ThresholdCoterie(n, k))
    assert same_assignment(full, assignment(SubsetThresholdCoterie(n, range(n), k)))
    if k < n:
        assert not same_assignment(full, assignment(ThresholdCoterie(n, k + 1)))
