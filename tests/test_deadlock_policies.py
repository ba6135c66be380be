"""Tests for the workload driver's deadlock resolution.

A requester that meets a lock conflict waits for the holder, unless the
wait would close a cycle in the waits-for graph: then the requester is
the deadlock victim and aborts.
"""

import pytest

from repro.atomicity.properties import (
    DynamicAtomicity,
    HybridAtomicity,
    StaticAtomicity,
)
from repro.replication.keyspace import ObjectSpec
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.spec.legality import LegalityOracle
from repro.types import Queue
from tests.helpers import cluster_of


def _generator(seed: int = 3, scheme: str = "dynamic", concurrency: int = 4):
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
        concurrency=concurrency,
    )
    return obj, generator


def _run(seed: int = 3, transactions: int = 25, scheme: str = "dynamic"):
    obj, generator = _generator(seed, scheme)
    return obj, generator.run(transactions)


class TestDetect:
    def test_the_workload_completes(self):
        _obj, metrics = _run()
        total = metrics.committed_transactions + metrics.aborted_transactions
        assert total == 25
        assert metrics.committed_transactions > 0

    def test_histories_stay_safe(self):
        # Safety is the scheme's job, not the driver's; verify it anyway
        # under the hybrid scheme (cheap membership check).
        obj, _metrics = _run(scheme="hybrid")
        checker = HybridAtomicity(obj.datatype, LegalityOracle(obj.datatype))
        assert checker.admits(obj.recorder.to_behavioral_history())

    def test_deterministic_per_seed(self):
        _o1, first = _run(seed=5)
        _o2, second = _run(seed=5)
        assert first.outcomes == second.outcomes

    @pytest.mark.parametrize(
        "scheme, checker",
        [("static", StaticAtomicity), ("dynamic", DynamicAtomicity)],
        ids=["static", "dynamic"],
    )
    def test_each_schemes_histories_keep_its_own_property(self, scheme, checker):
        obj, metrics = _run(seed=4, transactions=12, scheme=scheme)
        assert metrics.committed_transactions > 0
        history = obj.recorder.to_behavioral_history()
        assert checker(obj.datatype, LegalityOracle(obj.datatype)).admits(history)

    def test_one_transaction_at_a_time_never_waits(self, monkeypatch):
        _obj, generator = _generator(seed=9, concurrency=1)
        aborts = []
        abort = generator._abort

        def recording(script, reason):
            aborts.append(reason)
            abort(script, reason)

        monkeypatch.setattr(generator, "_abort", recording)
        metrics = generator.run(10)
        assert "deadlock victim" not in aborts
        assert metrics.committed_transactions + metrics.aborted_transactions == 10

    def test_a_cycle_aborts_the_requester_and_the_run_completes(self, monkeypatch):
        victims = []
        _obj, generator = _generator(seed=9)
        abort = generator._abort

        def recording(script, reason):
            if reason == "deadlock victim":
                victims.append(script.txn.id)
            abort(script, reason)

        monkeypatch.setattr(generator, "_abort", recording)
        metrics = generator.run(40)
        assert victims
        assert metrics.committed_transactions + metrics.aborted_transactions == 40
        assert not any(generator.waits._edges.values())  # every wait released
