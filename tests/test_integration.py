"""End-to-end integration: the runtime meets the theory kernel.

The central correctness argument of the reproduction: behavioral
histories produced by the *running replicated system* under each
concurrency-control scheme must be members of the behavioral
specification that scheme claims to enforce — checked by the same
membership machinery that verifies the paper's theorems.  A deliberately
invalid quorum assignment must, conversely, produce an atomicity
violation.
"""

import pytest

from repro.atomicity.properties import (
    DynamicAtomicity,
    HybridAtomicity,
    StaticAtomicity,
)
from repro.dependency import known
from repro.histories.events import Invocation, ok, signal
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.coterie import EmptyCoterie, ThresholdCoterie
from repro.replication.keyspace import ObjectSpec
from repro.sim.failures import CrashInjector
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.spec.legality import LegalityOracle
from repro.types import PROM, Counter, Queue
from tests.helpers import (
    cluster_of,
    queue_system,
    refused_layout_system,
    small_system,
)


def _drive(cluster, obj, transactions, concurrency=3, ops=2, mix=None):
    mix = mix or OperationMix.uniform("obj", obj.datatype.invocations())
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        mix,
        ops_per_transaction=ops,
        concurrency=concurrency,
    )
    return generator.run(transactions)


class TestSchemesEnforceTheirProperties:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_hybrid_histories_are_hybrid_atomic(self, seed):
        cluster, obj = queue_system("hybrid", seed=seed)
        _drive(cluster, obj, transactions=25)
        history = obj.recorder.to_behavioral_history()
        checker = HybridAtomicity(obj.datatype, LegalityOracle(obj.datatype))
        assert checker.admits(history)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_static_histories_are_static_atomic(self, seed):
        cluster, obj = queue_system("static", seed=seed)
        _drive(cluster, obj, transactions=25)
        history = obj.recorder.to_behavioral_history()
        checker = StaticAtomicity(obj.datatype, LegalityOracle(obj.datatype))
        assert checker.admits(history)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_dynamic_histories_are_dynamic_atomic(self, seed):
        # Smaller runs: checking Definition 7 enumerates linear
        # extensions, which grows quickly with concurrent commits.
        cluster, obj = queue_system("dynamic", seed=seed)
        _drive(cluster, obj, transactions=8, concurrency=2)
        history = obj.recorder.to_behavioral_history()
        checker = DynamicAtomicity(obj.datatype, LegalityOracle(obj.datatype))
        assert checker.admits(history)

    def test_prom_under_hybrid_with_paper_assignment(self):
        """The paper's 1/n/1 PROM assignment, validated in execution."""
        n = 3
        assignment = QuorumAssignment(
            n,
            {
                "Read": OperationQuorums(
                    initial=ThresholdCoterie(n, 1), final=EmptyCoterie(n)
                ),
                "Seal": OperationQuorums(
                    initial=ThresholdCoterie(n, n), final=ThresholdCoterie(n, n)
                ),
                "Write": OperationQuorums(
                    initial=ThresholdCoterie(n, 1), final=ThresholdCoterie(n, 1)
                ),
            },
            final_by_kind={("Read", "Disabled"): ThresholdCoterie(n, 1)},
        )
        datatype = PROM()
        relation = known.ground(datatype, known.PROM_HYBRID, 5)
        cluster, obj = small_system(
            datatype, "hybrid", relation, n_sites=n, assignment=assignment
        )
        _drive(cluster, obj, transactions=20)
        history = obj.recorder.to_behavioral_history()
        checker = HybridAtomicity(datatype, LegalityOracle(datatype))
        assert checker.admits(history)


class TestInvalidAssignmentBreaksAtomicity:
    def test_missing_intersection_produces_violation(self):
        """Queue with Deq reading only 1 site while Enq writes only 1:
        Deq's view can miss committed enqueues, and sooner or later a
        response is chosen that no hybrid serialization can justify."""
        n = 3
        broken = QuorumAssignment(
            n,
            {
                "Enq": OperationQuorums(
                    initial=ThresholdCoterie(n, 1), final=ThresholdCoterie(n, 1)
                ),
                "Deq": OperationQuorums(
                    initial=ThresholdCoterie(n, 1), final=ThresholdCoterie(n, 1)
                ),
            },
        )
        datatype = Queue()
        violations = 0
        for seed in range(6):
            cluster, obj = refused_layout_system(
                datatype, broken, n_sites=n, seed=seed
            )
            try:
                _drive(cluster, obj, transactions=25)
            except Exception:
                violations += 1
                continue
            history = obj.recorder.to_behavioral_history()
            checker = HybridAtomicity(datatype, LegalityOracle(datatype))
            if not checker.admits(history):
                violations += 1
        assert violations > 0


class TestFaultTolerance:
    def test_workload_survives_crash_churn(self):
        cluster, obj = queue_system("hybrid", n_sites=5, seed=3)
        CrashInjector(cluster.network, mean_uptime=50.0, mean_downtime=10.0).install()
        metrics = _drive(cluster, obj, transactions=30)
        total = metrics.committed_transactions + metrics.aborted_transactions
        assert total == 30
        assert metrics.committed_transactions > 0
        history = obj.recorder.to_behavioral_history()
        checker = HybridAtomicity(obj.datatype, LegalityOracle(obj.datatype))
        assert checker.admits(history)

    def test_partition_preserves_safety_on_both_sides(self):
        """Unlike available-copies, quorum consensus stays serializable
        under partition: the minority simply becomes unavailable."""
        cluster, obj = queue_system("hybrid", n_sites=3, seed=4)
        cluster.network.partition({0}, {1, 2})
        metrics = _drive(cluster, obj, transactions=20)
        history = obj.recorder.to_behavioral_history()
        checker = HybridAtomicity(obj.datatype, LegalityOracle(obj.datatype))
        assert checker.admits(history)
        # The minority front-end saw unavailability.
        unavailable = metrics.counts()["unavailable"]
        assert unavailable > 0


def _counters(relation):
    """Replicated hybrid counters ``left`` and ``right`` on three sites."""
    return cluster_of(
        3, *(ObjectSpec(name, Counter(), "hybrid", relation=relation) for name in ("left", "right"))
    )


class TestMultiObjectTransactions:
    def test_transfer_between_replicated_counters(self):
        from repro.dependency.dynamic_dep import minimal_dynamic_dependency

        cluster = _counters(minimal_dynamic_dependency(Counter(), 3))
        fe = cluster.frontends[0]
        seed_txn = cluster.tm.begin(0)
        fe.execute(seed_txn, "left", Invocation("Inc"))
        cluster.tm.commit(seed_txn)

        transfer = cluster.tm.begin(0)
        assert fe.execute(transfer, "left", Invocation("Dec")) == ok()
        assert fe.execute(transfer, "right", Invocation("Inc")) == ok()
        cluster.tm.commit(transfer)

        audit = cluster.tm.begin(0)
        left = fe.execute(audit, "left", Invocation("Read"))
        right = fe.execute(audit, "right", Invocation("Read"))
        assert (left.values[0], right.values[0]) == (0, 1)

    def test_atomicity_spans_objects(self):
        """A veto on one object aborts the transaction everywhere."""
        from repro.dependency.dynamic_dep import minimal_dynamic_dependency

        cluster = _counters(minimal_dynamic_dependency(Counter(), 3))
        fe = cluster.frontends[0]
        txn = cluster.tm.begin(0)
        fe.execute(txn, "left", Invocation("Inc"))
        fe.execute(txn, "right", Invocation("Inc"))
        cluster.tm.abort(txn)
        audit = cluster.tm.begin(0)
        assert fe.execute(audit, "left", Invocation("Read")) == ok(0)
        assert fe.execute(audit, "right", Invocation("Read")) == ok(0)
