"""Unit tests for the workload driver."""

import pytest

from repro.histories.events import Invocation
from repro.sim.workload import OperationMix, WorkloadGenerator
from tests.helpers import queue_system

ENQ_A = Invocation("Enq", ("a",))
DEQ = Invocation("Deq")


class TestOperationMix:
    def test_uniform_covers_all_invocations(self, queue):
        mix = OperationMix.uniform("q", queue.invocations())
        sampled = set()
        import random

        rng = random.Random(0)
        for _ in range(200):
            sampled.add(mix.sample(rng))
        assert sampled == {("q", inv) for inv in queue.invocations()}

    def test_weighted_sampling_respects_weights(self):
        mix = OperationMix.weighted([("q", ENQ_A, 9.0), ("q", DEQ, 1.0)])
        import random

        rng = random.Random(1)
        counts = {"Enq": 0, "Deq": 0}
        for _ in range(1000):
            _name, inv = mix.sample(rng)
            counts[inv.op] += 1
        assert counts["Enq"] > counts["Deq"] * 4


    def test_draws_scale_by_the_total_taken_at_build(self):
        import random

        items = [("q", ENQ_A, 0.1), ("q", DEQ, 0.7), ("r", DEQ, 0.2)]
        mix = OperationMix.weighted(items)
        assert mix.total == sum(weight for _name, _inv, weight in items)
        assert mix == OperationMix.weighted(items)
        # The draw a per-draw re-summation made, bit for bit.
        rng, model = random.Random(7), random.Random(7)
        for _ in range(500):
            point = model.random() * sum(weight for _c, weight in mix.choices)
            for choice, weight in mix.choices:
                point -= weight
                if point <= 0:
                    break
            else:
                choice = mix.choices[-1][0]
            assert mix.sample(rng) == choice


class TestWorkloadGenerator:
    def _run(self, scheme: str, seed: int = 0, transactions: int = 20):
        cluster, obj = queue_system(scheme, seed=seed)
        mix = OperationMix.uniform("obj", obj.datatype.invocations())
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

    def test_all_transactions_reach_a_verdict(self):
        cluster, _obj, metrics = self._run("hybrid")
        total = metrics.committed_transactions + metrics.aborted_transactions
        assert total == 20
        assert cluster.tm.commits == metrics.committed_transactions

    def test_deterministic_per_seed(self):
        _c1, _o1, first = self._run("hybrid", seed=5)
        _c2, _o2, second = self._run("hybrid", seed=5)
        assert first.outcomes == second.outcomes

    def test_different_seeds_differ(self):
        _c1, _o1, first = self._run("hybrid", seed=1)
        _c2, _o2, second = self._run("hybrid", seed=2)
        assert first.outcomes != second.outcomes

    def test_simulated_time_advances(self):
        cluster, _obj, _metrics = self._run("hybrid")
        assert cluster.sim.now > 0.0

    def test_locking_scheme_completes_without_stalls(self):
        _cluster, _obj, metrics = self._run("dynamic", transactions=15)
        assert metrics.committed_transactions + metrics.aborted_transactions == 15

    def test_no_transaction_left_active(self):
        cluster, _obj, _metrics = self._run("static")
        assert all(not txn.is_active for txn in cluster.tm.transactions())

    def test_a_single_invocation_mix_drives_only_that_operation(self):
        # Every transaction body is ops_per_transaction draws of the mix,
        # so a one-choice mix makes every operation that choice.
        cluster, _obj = queue_system("hybrid", seed=0)
        generator = WorkloadGenerator(
            cluster.sim,
            cluster.tm,
            cluster.frontends,
            OperationMix.uniform("obj", [ENQ_A]),
            ops_per_transaction=2,
            concurrency=3,
        )
        metrics = generator.run(6)
        assert tuple(metrics.summary()) == ("Enq",)
        assert metrics.outcomes["Enq", "ok"] == 2 * metrics.committed_transactions
        assert metrics.committed_transactions + metrics.aborted_transactions == 6

    def test_boundary_hook_fires_once_per_new_transaction(self):
        cluster, obj = queue_system("hybrid", seed=0)
        started = []
        generator = WorkloadGenerator(
            cluster.sim,
            cluster.tm,
            cluster.frontends,
            OperationMix.uniform("obj", obj.datatype.invocations()),
            ops_per_transaction=2,
            concurrency=3,
            on_transaction_start=started.append,
        )
        generator.run(7)
        assert started == list(range(7))
