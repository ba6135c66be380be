"""Unit tests for exact availability computation."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import QuorumError
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.availability import (
    _EXACT_LIMIT,
    _count_tail,
    _upset_probability,
    assignment_availability,
    binomial_tail,
    coterie_availability,
    operation_availability,
)
from repro.quorum.coterie import (
    EmptyCoterie,
    ExplicitCoterie,
    SubsetThresholdCoterie,
    ThresholdCoterie,
)


class TestCoterieAvailability:
    def test_single_site(self):
        assert coterie_availability(ThresholdCoterie(1, 1), 0.9) == pytest.approx(0.9)

    def test_all_sites_needed(self):
        assert coterie_availability(ThresholdCoterie(3, 3), 0.9) == pytest.approx(
            0.9**3
        )

    def test_any_site_suffices(self):
        expected = 1 - 0.1**3
        assert coterie_availability(ThresholdCoterie(3, 1), 0.9) == pytest.approx(
            expected
        )

    def test_majority_of_three(self):
        p = 0.9
        expected = 3 * p**2 * (1 - p) + p**3
        assert coterie_availability(ThresholdCoterie(3, 2), p) == pytest.approx(
            expected
        )

    def test_empty_coterie_always_available(self):
        assert coterie_availability(EmptyCoterie(4), 0.0) == 1.0

    def test_binomial_matches_enumeration(self):
        threshold = ThresholdCoterie(4, 3)
        explicit = ExplicitCoterie(4, list(threshold.quorums()))
        assert coterie_availability(threshold, 0.8) == pytest.approx(
            coterie_availability(explicit, 0.8)
        )

    def test_heterogeneous_probabilities(self):
        coterie = ExplicitCoterie(2, [{0}, {1}])
        # P(at least one of two up) with p0=0.5, p1=0.8.
        assert coterie_availability(coterie, [0.5, 0.8]) == pytest.approx(
            1 - 0.5 * 0.2
        )

    def test_wrong_probability_count_rejected(self):
        with pytest.raises(QuorumError):
            coterie_availability(ThresholdCoterie(3, 1), [0.9, 0.9])

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(QuorumError):
            coterie_availability(ThresholdCoterie(2, 1), 1.5)

    @given(st.integers(1, 5), st.floats(0.0, 1.0))
    def test_monotone_in_threshold(self, n, p):
        values = [
            coterie_availability(ThresholdCoterie(n, k), p) for k in range(1, n + 1)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @given(st.integers(1, 5), st.integers(1, 5))
    def test_monotone_in_probability(self, n, k):
        k = min(k, n)
        coterie = ThresholdCoterie(n, k)
        previous = 0.0
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            current = coterie_availability(coterie, p)
            assert current >= previous - 1e-12
            previous = current


class TestOperationAvailability:
    def _assignment(self, n, init, final):
        return QuorumAssignment(
            n,
            {
                "Op": OperationQuorums(
                    initial=ThresholdCoterie(n, init),
                    final=(
                        EmptyCoterie(n) if final == 0 else ThresholdCoterie(n, final)
                    ),
                )
            },
        )

    def test_joint_needs_max_of_thresholds(self):
        assignment = self._assignment(5, 2, 4)
        direct = operation_availability(assignment, "Op", 0.9)
        assert direct == pytest.approx(
            coterie_availability(ThresholdCoterie(5, 4), 0.9)
        )

    def test_not_a_product_of_marginals(self):
        assignment = self._assignment(3, 2, 2)
        joint = operation_availability(assignment, "Op", 0.8)
        marginal = coterie_availability(ThresholdCoterie(3, 2), 0.8)
        assert joint == pytest.approx(marginal)  # same quorum serves both
        assert joint > marginal**2

    def test_empty_final_reduces_to_initial(self):
        assignment = self._assignment(5, 1, 0)
        assert operation_availability(assignment, "Op", 0.9) == pytest.approx(
            coterie_availability(ThresholdCoterie(5, 1), 0.9)
        )

    def test_threshold_fast_path_matches_enumeration(self):
        n = 4
        fast = self._assignment(n, 2, 3)
        explicit = QuorumAssignment(
            n,
            {
                "Op": OperationQuorums(
                    initial=ExplicitCoterie(
                        n, list(ThresholdCoterie(n, 2).quorums())
                    ),
                    final=ExplicitCoterie(
                        n, list(ThresholdCoterie(n, 3).quorums())
                    ),
                )
            },
        )
        assert operation_availability(fast, "Op", 0.75) == pytest.approx(
            operation_availability(explicit, "Op", 0.75)
        )


class TestAssignmentAvailability:
    def test_weighted_mean(self):
        assignment = QuorumAssignment(
            3,
            {
                "R": OperationQuorums(
                    initial=ThresholdCoterie(3, 1), final=EmptyCoterie(3)
                ),
                "W": OperationQuorums(
                    initial=ThresholdCoterie(3, 3), final=ThresholdCoterie(3, 3)
                ),
            },
        )
        r = operation_availability(assignment, "R", 0.9)
        w = operation_availability(assignment, "W", 0.9)
        mixed = assignment_availability(assignment, 0.9, {"R": 3.0, "W": 1.0})
        assert mixed == pytest.approx((3 * r + w) / 4)

    def test_zero_weights_rejected(self):
        assignment = QuorumAssignment(
            2,
            {
                "R": OperationQuorums(
                    initial=ThresholdCoterie(2, 1), final=ThresholdCoterie(2, 2)
                )
            },
        )
        with pytest.raises(QuorumError):
            assignment_availability(assignment, 0.9, {"R": 0.0})


class TestPoissonBinomialPath:
    def test_heterogeneous_threshold_matches_enumeration(self):
        from repro.quorum.coterie import ExplicitCoterie

        probs = [0.95, 0.7, 0.5, 0.8]
        threshold = ThresholdCoterie(4, 3)
        explicit = ExplicitCoterie(4, list(threshold.quorums()))
        assert coterie_availability(threshold, probs) == pytest.approx(
            coterie_availability(explicit, probs)
        )

    def test_scales_past_enumeration_limit(self):
        # 24 sites would overflow the 2^n enumeration guard; the DP path
        # handles heterogeneous thresholds at any size.
        probs = [0.9 if i % 2 else 0.8 for i in range(24)]
        value = coterie_availability(ThresholdCoterie(24, 13), probs)
        assert 0.0 < value < 1.0

    def test_reduces_to_binomial_when_uniform(self):
        probs = [0.85] * 5
        assert coterie_availability(ThresholdCoterie(5, 3), probs) == pytest.approx(
            coterie_availability(ThresholdCoterie(5, 3), 0.85)
        )

    def test_heterogeneous_operation_matches_enumeration(self):
        probs = [0.99, 0.6, 0.6]
        for init in range(1, 4):
            for final in range(4):
                threshold = QuorumAssignment(
                    3,
                    {
                        "Op": OperationQuorums(
                            initial=ThresholdCoterie(3, init),
                            final=(
                                EmptyCoterie(3)
                                if final == 0
                                else ThresholdCoterie(3, final)
                            ),
                        )
                    },
                )
                needed = max(init, final)
                explicit = ExplicitCoterie(
                    3, list(ThresholdCoterie(3, needed).quorums())
                )
                assert operation_availability(
                    threshold, "Op", probs
                ) == pytest.approx(coterie_availability(explicit, probs))


class TestBinomialTail:
    def test_tail_zero_is_total_mass(self):
        assert binomial_tail(5, 0, 0.9) == pytest.approx(1.0)

    def test_past_end_tail_is_zero(self):
        assert binomial_tail(4, 5, 0.7) == 0.0

    @given(st.integers(0, 8), st.floats(0.0, 1.0))
    def test_matches_count_distribution(self, n, p):
        for k in range(n + 2):
            assert binomial_tail(n, k, p) == pytest.approx(
                _count_tail([p] * n, k), abs=1e-12
            )


class TestUpsetEnumeration:
    def test_explicit_operation_matches_hand_count(self):
        probs = [0.9, 0.5, 0.8, 0.7]
        initial = ExplicitCoterie(4, [{0, 1}, {1, 2, 3}])
        assignment = QuorumAssignment(
            4,
            {"Op": OperationQuorums(initial=initial, final=ThresholdCoterie(4, 2))},
        )
        # Every quorum of ``initial`` has at least two sites, so the final
        # threshold adds nothing: P[{0,1} up or {1,2,3} up].
        p0, p1, p2, p3 = probs
        both = p0 * p1 * p2 * p3
        expected = p0 * p1 + p1 * p2 * p3 - both
        assert coterie_availability(initial, probs) == pytest.approx(expected)
        assert operation_availability(assignment, "Op", probs) == pytest.approx(
            expected
        )

    def test_respects_exact_limit(self):
        sites = _EXACT_LIMIT + 1
        coterie = ExplicitCoterie(sites, [set(range(sites))])
        with pytest.raises(QuorumError, match=f"limited to {_EXACT_LIMIT} sites"):
            coterie_availability(coterie, 0.9)


probabilities = st.floats(0.0, 1.0) | st.sampled_from((0.5, 0.9))


@st.composite
def subset_cases(draw):
    n = draw(st.integers(1, 6))
    members = draw(st.sets(st.integers(0, n - 1)))
    coterie = SubsetThresholdCoterie(n, members, draw(st.integers(0, len(members))))
    uniform = draw(st.booleans())
    probs = [draw(probabilities)] * n if uniform else draw(
        st.lists(probabilities, min_size=n, max_size=n)
    )
    return coterie, probs


class TestSubsetThresholdAvailability:
    """The member-set closed form against the up-set enumeration it replaced.

    Not ``==``: the binomial and Poisson-binomial tails sum in another
    order than the enumeration, so the last bits differ.
    """

    @given(subset_cases())
    def test_coterie_matches_enumeration(self, case):
        coterie, probs = case
        brute = _upset_probability(coterie.n_sites, probs, coterie.has_quorum)
        assert coterie_availability(coterie, probs) == pytest.approx(brute, abs=1e-12)

    @given(subset_cases(), st.data())
    def test_shared_members_operation_matches_enumeration(self, case, data):
        initial, probs = case
        final = SubsetThresholdCoterie(
            initial.n_sites,
            initial.members,
            data.draw(st.integers(0, len(initial.members))),
        )
        assignment = QuorumAssignment(
            initial.n_sites, {"Op": OperationQuorums(initial=initial, final=final)}
        )
        brute = _upset_probability(
            initial.n_sites,
            probs,
            lambda live: initial.has_quorum(live) and final.has_quorum(live),
        )
        assert operation_availability(assignment, "Op", probs) == pytest.approx(
            brute, abs=1e-12
        )
