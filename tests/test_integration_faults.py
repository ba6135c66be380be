"""Integration under adverse network conditions: loss, churn, partitions.

Safety must hold regardless of message loss and failure timing; these
tests drive workloads through lossy and churning networks and replay the
recorded histories through the membership checkers.
"""

import pytest

from repro.atomicity.properties import HybridAtomicity, StaticAtomicity
from repro.replication.keyspace import ObjectSpec
from repro.sim.failures import CrashInjector, PartitionInjector
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.spec.legality import LegalityOracle
from repro.types import Queue
from tests.helpers import cluster_of


def _run(scheme, *, seed, drop=0.0, crash=False, partition=False, transactions=25):
    queue = Queue()
    spec = ObjectSpec("obj", queue, scheme)
    cluster = cluster_of(3, spec, seed=seed, drop_probability=drop)
    obj = cluster.tm.object("obj")
    if crash:
        CrashInjector(cluster.network, mean_uptime=60.0, mean_downtime=8.0).install()
    if partition:
        PartitionInjector(cluster.network, mean_interval=40.0, mean_duration=10.0).install()
    mix = OperationMix.uniform("obj", queue.invocations())
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        mix,
        ops_per_transaction=2,
        concurrency=3,
    )
    metrics = generator.run(transactions)
    return cluster, obj, metrics


class TestLossyNetwork:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_hybrid_safe_under_message_loss(self, seed):
        cluster, obj, metrics = _run("hybrid", seed=seed, drop=0.15)
        assert cluster.network.messages_dropped > 0
        history = obj.recorder.to_behavioral_history()
        checker = HybridAtomicity(obj.datatype, LegalityOracle(obj.datatype))
        assert checker.admits(history)

    def test_progress_despite_loss(self):
        _cluster, _obj, metrics = _run("hybrid", seed=3, drop=0.1)
        assert metrics.committed_transactions > 0


class TestChurn:
    @pytest.mark.parametrize("seed", [4, 5])
    def test_static_safe_under_crash_churn(self, seed):
        cluster, obj, metrics = _run("static", seed=seed, crash=True)
        history = obj.recorder.to_behavioral_history()
        checker = StaticAtomicity(obj.datatype, LegalityOracle(obj.datatype))
        assert checker.admits(history)

    def test_hybrid_safe_under_combined_faults(self):
        cluster, obj, metrics = _run(
            "hybrid", seed=6, drop=0.05, crash=True, partition=True
        )
        history = obj.recorder.to_behavioral_history()
        checker = HybridAtomicity(obj.datatype, LegalityOracle(obj.datatype))
        assert checker.admits(history)
        total = metrics.committed_transactions + metrics.aborted_transactions
        assert total == 25


class TestStress:
    @pytest.mark.parametrize(
        "schemes",
        [("hybrid", "dynamic", "dynamic", "hybrid"), ("static",) * 4],
        ids=["commit-order", "begin-order"],
    )
    def test_many_objects_mixed_schemes(self, schemes):
        """Four objects in one transaction space, which has one
        serialization order: hybrid and dynamic share commit order, and
        static objects keep to themselves."""
        queue = Queue()
        names = [(f"q{index}", scheme) for index, scheme in enumerate(schemes)]
        cluster = cluster_of(
            3,
            *(ObjectSpec(name, Queue(), scheme) for name, scheme in names),
            seed=7,
        )
        mix = OperationMix.weighted(
            [
                (name, inv, 1.0)
                for name, _scheme in names
                for inv in queue.invocations()
            ]
        )
        generator = WorkloadGenerator(
            cluster.sim,
            cluster.tm,
            cluster.frontends,
            mix,
            ops_per_transaction=3,
            concurrency=3,
        )
        metrics = generator.run(30)
        assert metrics.committed_transactions > 0
        oracle = LegalityOracle(queue)
        checkers = {
            "hybrid": HybridAtomicity(queue, oracle),
            "static": StaticAtomicity(queue, oracle),
        }
        for name, scheme in names:
            if scheme == "dynamic":
                continue  # exponential check; covered in test_integration
            history = cluster.tm.object(name).recorder.to_behavioral_history()
            assert checkers[scheme].admits(history), f"{name} under {scheme}"
