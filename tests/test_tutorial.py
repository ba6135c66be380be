"""The tutorial's CappedCounter walkthrough, executed as a test.

Keeps docs/TUTORIAL.md honest: every step of the documented workflow —
define a type, compute relations, synthesize a hybrid relation, search
quorums, run the cluster, validate the history — must actually work for
a type the library has never seen.
"""

import pytest

from repro.atomicity.explore import ExplorationBounds
from repro.atomicity.properties import HybridAtomicity
from repro.dependency.dynamic_dep import minimal_dynamic_dependency
from repro.dependency.hybrid_dep import synthesize_hybrid_relation
from repro.dependency.static_dep import minimal_static_dependency
from repro.dependency.verify import (
    VerificationArena,
    VerificationBounds,
    find_counterexample,
)
from repro.errors import SpecificationError
from repro.histories.events import Invocation, event, ok, signal
from repro.quorum.constraints import satisfies
from repro.quorum.search import best_threshold_assignment
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec
from repro.spec.datatype import SerialDataType
from repro.spec.legality import LegalityOracle


class CappedCounter(SerialDataType):
    """The tutorial's example type: Visit() up to a cap, Total() reads."""

    name = "CappedCounter"

    def __init__(self, cap: int = 3):
        self._cap = cap

    def initial_state(self):
        return 0

    def apply(self, state, invocation):
        if invocation.op == "Visit":
            if state >= self._cap:
                return [(signal("Full"), state)]
            return [(ok(), state + 1)]
        if invocation.op == "Total":
            return [(ok(state), state)]
        raise SpecificationError(f"no operation {invocation.op!r}")

    def invocations(self):
        return (Invocation("Visit"), Invocation("Total"))


@pytest.fixture(scope="module")
def counter():
    return CappedCounter()


@pytest.fixture(scope="module")
def oracle(counter):
    return LegalityOracle(counter)


@pytest.fixture(scope="module")
def hybrid_relation(counter, oracle):
    arena = VerificationArena(
        HybridAtomicity(counter, oracle),
        VerificationBounds(ExplorationBounds(max_ops=3, max_actions=3)),
    )
    relation = synthesize_hybrid_relation(arena)
    assert find_counterexample(relation, arena) is None
    return relation


class TestTutorialSteps:
    def test_step2_relations(self, counter, oracle):
        static = minimal_static_dependency(counter, 3, oracle)
        dynamic = minimal_dynamic_dependency(counter, 3, oracle)
        total = Invocation("Total")
        assert static.depends(total, event("Visit"))
        assert len(dynamic) > 0

    def test_step3_hybrid_relation_smaller_than_static(
        self, counter, oracle, hybrid_relation
    ):
        static = minimal_static_dependency(counter, 3, oracle)
        assert len(hybrid_relation) <= len(static)

    def test_step4_assignment_search(self, hybrid_relation):
        choice, score = best_threshold_assignment(
            hybrid_relation,
            5,
            ("Total", "Visit"),
            0.9,
            weights={"Visit": 5.0, "Total": 1.0},
        )
        assignment = choice.to_assignment()
        assert satisfies(assignment, hybrid_relation)
        assert 0.0 < score <= 1.0

    def test_steps_5_and_6_run_and_validate(
        self, counter, oracle, hybrid_relation
    ):
        choice, _score = best_threshold_assignment(
            hybrid_relation, 5, ("Total", "Visit"), 0.9
        )
        visits = ObjectSpec(
            "visits",
            counter,
            "hybrid",
            assignment=choice.to_assignment(),
            relation=hybrid_relation,
        )
        cluster = build_keyspace(KeyspaceSpec(5, (visits,)), seed=1)
        obj = cluster.tm.object("visits")
        for _ in range(3):
            txn = cluster.tm.begin(0)
            cluster.frontends[0].execute(txn, "visits", Invocation("Visit"))
            cluster.tm.commit(txn)
        # The cap bites on the fourth visit.
        txn = cluster.tm.begin(0)
        assert cluster.frontends[0].execute(
            txn, "visits", Invocation("Visit")
        ) == signal("Full")
        assert cluster.frontends[0].execute(
            txn, "visits", Invocation("Total")
        ) == ok(3)
        cluster.tm.commit(txn)

        history = obj.recorder.to_behavioral_history()
        assert HybridAtomicity(counter, oracle).admits(history)
