"""Weighted voting with heterogeneous sites (Gifford [11]).

The paper treats Gifford's weighted voting as a specially optimized
instance of quorum consensus.  This benchmark regenerates the insight
that motivates weights at all: with one highly reliable site among
flaky ones, the availability-optimal assignment concentrates votes on
the reliable site, strictly beating the best uniform-threshold
assignment — while identical sites make weights worthless.
"""

import pytest
from conftest import report

from repro.dependency.static_dep import minimal_static_dependency
from repro.quorum.availability import operation_availability
from repro.quorum.search import valid_threshold_choices
from repro.quorum.voting_search import best_voting_assignment
from repro.types import Register

OPS = ("Read", "Write")


def _best_uniform(relation, p_vector):
    best = 0.0
    for choice in valid_threshold_choices(relation, len(p_vector), OPS):
        assignment = choice.to_assignment()
        values = [
            operation_availability(assignment, op, list(p_vector)) for op in OPS
        ]
        score = sum(values) / len(OPS)
        best = max(best, score)
    return best


def test_weighted_voting_heterogeneous(benchmark):
    relation = minimal_static_dependency(Register(), 3)
    heterogeneous = (0.99, 0.6, 0.6)
    homogeneous = (0.8, 0.8, 0.8)

    def search():
        return (
            best_voting_assignment(relation, heterogeneous, OPS),
            best_voting_assignment(relation, homogeneous, OPS),
            _best_uniform(relation, heterogeneous),
            _best_uniform(relation, homogeneous),
        )

    (het_w, het_assignment, het_score), (hom_w, _hom_a, hom_score), het_uniform, hom_uniform = (
        benchmark.pedantic(search, rounds=1, iterations=1)
    )

    assert het_score > het_uniform          # weights win when sites differ
    assert hom_score == pytest.approx(hom_uniform, abs=1e-9)  # and not otherwise
    assert het_w[0] == max(het_w)           # the reliable site carries votes

    lines = [
        "Replicated Register, read/write workload, weighted voting vs",
        "uniform thresholds (availability = mean of Read and Write):",
        "",
        f"heterogeneous sites p = {heterogeneous}:",
        f"  best weighted voting: weights {het_w}, availability {het_score:.4f}",
        f"  best uniform threshold:                availability {het_uniform:.4f}",
        f"  advantage: {het_score - het_uniform:+.4f}",
        "",
        f"identical sites p = {homogeneous}:",
        f"  best weighted voting availability {hom_score:.4f}",
        f"  best uniform threshold            {hom_uniform:.4f}",
        "  advantage: none (weights cannot help identical sites)",
        "",
        "optimal heterogeneous assignment:",
        "  " + het_assignment.describe().replace("\n", "\n  "),
    ]
    report("weighted_voting", "\n".join(lines))

