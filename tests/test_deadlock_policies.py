"""Tests for the workload driver's deadlock-resolution policies."""

import pytest

from repro.atomicity.properties import HybridAtomicity
from repro.replication.keyspace import ObjectSpec
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.spec.legality import LegalityOracle
from repro.types import Queue
from tests.helpers import cluster_of, hybrid_queue


def _run(policy: str, seed: int = 3, transactions: int = 25, scheme: str = "dynamic"):
    queue = Queue()
    cluster = cluster_of(3, ObjectSpec("obj", queue, scheme), seed=seed)
    obj = cluster.tm.object("obj")
    mix = OperationMix.uniform("obj", queue.invocations())
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        mix,
        ops_per_transaction=3,
        concurrency=4,
        deadlock_policy=policy,
    )
    metrics = generator.run(transactions)
    return cluster, obj, metrics


class TestPolicies:
    @pytest.mark.parametrize("policy", ["detect", "wound-wait"])
    def test_all_policies_complete_the_workload(self, policy):
        _cluster, _obj, metrics = _run(policy)
        total = metrics.committed_transactions + metrics.aborted_transactions
        assert total == 25
        assert metrics.committed_transactions > 0

    @pytest.mark.parametrize("policy", ["detect", "wound-wait"])
    def test_histories_stay_safe_under_every_policy(self, policy):
        # Safety is the scheme's job, not the policy's; verify it anyway
        # under the hybrid scheme (cheap membership check).
        _cluster, obj, _metrics = _run(policy, scheme="hybrid")
        checker = HybridAtomicity(obj.datatype, LegalityOracle(obj.datatype))
        assert checker.admits(obj.recorder.to_behavioral_history())

    def test_unknown_policy_rejected(self):
        cluster = cluster_of(3, hybrid_queue("obj"))
        generator = WorkloadGenerator(
            cluster.sim,
            cluster.tm,
            cluster.frontends,
            OperationMix.uniform("obj", Queue().invocations()),
            deadlock_policy="optimism",
        )
        with pytest.raises(ValueError):
            generator.run(1)

    def test_wait_die_is_refused_as_unknown(self):
        # ``wait-die`` had no caller and is gone; naming it is an error,
        # not a silent fall-back to another policy.
        cluster = cluster_of(3, hybrid_queue("obj"))
        generator = WorkloadGenerator(
            cluster.sim,
            cluster.tm,
            cluster.frontends,
            OperationMix.uniform("obj", Queue().invocations()),
            deadlock_policy="wait-die",
        )
        with pytest.raises(ValueError, match="wait-die"):
            generator.run(1)

    def test_policies_produce_different_abort_profiles(self):
        outcomes = {}
        for policy in ("detect", "wound-wait"):
            _c, _o, metrics = _run(policy, seed=9, transactions=40)
            outcomes[policy] = (
                metrics.committed_transactions,
                metrics.aborted_transactions,
            )
        # Both complete everything...
        assert all(sum(pair) >= 40 for pair in outcomes.values())
        # ...and disagree on the profile (the policies genuinely differ
        # in who gets aborted when).
        assert len(set(outcomes.values())) == 2

    def test_deterministic_per_seed_and_policy(self):
        _c1, _o1, first = _run("wound-wait", seed=5)
        _c2, _o2, second = _run("wound-wait", seed=5)
        assert first.outcomes == second.outcomes
