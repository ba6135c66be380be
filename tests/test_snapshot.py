"""Tests for log compaction (snapshots)."""

import pytest

from repro.atomicity.properties import HybridAtomicity
from repro.errors import SpecificationError, UnavailableError
from repro.histories.events import Invocation, ok
from repro.replication.snapshot import compact
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.spec.legality import LegalityOracle
from tests.helpers import queue_system

ENQ_A = Invocation("Enq", ("a",))
ENQ_B = Invocation("Enq", ("b",))
DEQ = Invocation("Deq")


def _committed_ops(cluster, ops):
    fe = cluster.frontends[0]
    for invocation in ops:
        txn = cluster.tm.begin(0)
        fe.execute(txn, "obj", invocation)
        cluster.tm.commit(txn)


class TestCompact:
    def test_folds_committed_entries(self):
        cluster, obj = queue_system("hybrid")
        _committed_ops(cluster, [ENQ_A, ENQ_B, DEQ])
        before = max(r.entry_count("obj") for r in cluster.repositories)
        snapshot = compact(
            cluster.network, cluster.repositories, obj, cluster.tm
        )
        assert snapshot is not None
        assert snapshot.events_folded == 3
        assert len(snapshot.covered) == 3
        assert snapshot.state == ("b",)  # a enqueued, b enqueued, a dequeued
        after = max(r.entry_count("obj") for r in cluster.repositories)
        assert before == 3 and after == 0

    def test_reads_correct_after_compaction(self):
        cluster, obj = queue_system("hybrid")
        _committed_ops(cluster, [ENQ_A, ENQ_B])
        compact(cluster.network, cluster.repositories, obj, cluster.tm)
        fe = cluster.frontends[1]
        txn = cluster.tm.begin(1)
        assert fe.execute(txn, "obj", DEQ) == ok("a")
        assert fe.execute(txn, "obj", DEQ) == ok("b")
        cluster.tm.commit(txn)

    def test_repeated_compaction_is_monotone(self):
        cluster, obj = queue_system("hybrid")
        _committed_ops(cluster, [ENQ_A])
        first = compact(cluster.network, cluster.repositories, obj, cluster.tm)
        _committed_ops(cluster, [ENQ_B])
        second = compact(cluster.network, cluster.repositories, obj, cluster.tm)
        assert second.subsumes(first)
        assert second.state == ("a", "b")
        # Nothing new: compaction is a no-op.
        assert compact(cluster.network, cluster.repositories, obj, cluster.tm) is None

    def test_active_entries_survive_compaction(self):
        cluster, obj = queue_system("hybrid")
        _committed_ops(cluster, [ENQ_A])
        fe = cluster.frontends[0]
        active = cluster.tm.begin(0)
        fe.execute(active, "obj", ENQ_B)  # uncommitted
        snapshot = compact(cluster.network, cluster.repositories, obj, cluster.tm)
        assert active.id not in snapshot.covered
        assert max(r.entry_count("obj") for r in cluster.repositories) == 1
        cluster.tm.commit(active)
        txn = cluster.tm.begin(2)
        assert cluster.frontends[2].execute(txn, "obj", DEQ) == ok("a")
        assert cluster.frontends[2].execute(txn, "obj", DEQ) == ok("b")
        cluster.tm.commit(txn)

    def test_aborted_entries_discarded(self):
        cluster, obj = queue_system("hybrid")
        fe = cluster.frontends[0]
        doomed = cluster.tm.begin(0)
        fe.execute(doomed, "obj", ENQ_B)
        cluster.tm.abort(doomed)
        _committed_ops(cluster, [ENQ_A])
        compact(cluster.network, cluster.repositories, obj, cluster.tm)
        txn = cluster.tm.begin(0)
        assert fe.execute(txn, "obj", DEQ) == ok("a")
        cluster.tm.commit(txn)

    def test_static_scheme_rejected(self):
        cluster, obj = queue_system("static")
        with pytest.raises(SpecificationError):
            compact(cluster.network, cluster.repositories, obj, cluster.tm)

    def test_requires_final_transversal(self):
        cluster, obj = queue_system("hybrid")
        _committed_ops(cluster, [ENQ_A])
        for site in (1, 2):
            cluster.network.crash(site)
        with pytest.raises(UnavailableError):
            compact(cluster.network, cluster.repositories, obj, cluster.tm)

    def test_unreachable_sites_named_are_replicas_only(self):
        # Genuine partial replication: a failed compaction of a ring-placed
        # object must not name sites that never held it.
        from repro.replication.cluster import build_keyspace
        from repro.replication.keyspace import soak_keyspace

        cluster = build_keyspace(soak_keyspace(4, 6, replication_factor=3))
        name = "queue-0"
        replicas = cluster.placement.replicas(name)
        assert len(replicas) == 3
        for site in replicas[1:]:
            cluster.network.crash(site)
        with pytest.raises(UnavailableError) as failure:
            compact(
                cluster.network,
                cluster.repositories,
                cluster.tm.object(name),
                cluster.tm,
                coordinator_site=replicas[0],
                sites=replicas,
            )
        assert failure.value.missing == frozenset(replicas[1:])

    def test_lagging_site_catches_up_through_snapshot(self):
        cluster, obj = queue_system("hybrid")
        cluster.network.crash(2)
        _committed_ops(cluster, [ENQ_A, ENQ_B])
        cluster.network.recover(2)
        compact(cluster.network, cluster.repositories, obj, cluster.tm)
        # Site 2 never saw the entries but received the snapshot.
        assert cluster.repositories[2].read_snapshot("obj") is not None
        # A stale write echoing old entries is filtered on arrival.
        txn = cluster.tm.begin(2)
        assert cluster.frontends[2].execute(txn, "obj", DEQ) == ok("a")
        cluster.tm.commit(txn)


class TestCompactionUnderWorkload:
    def test_history_stays_hybrid_atomic_across_compactions(self):
        cluster, obj = queue_system("hybrid", seed=13)
        mix = OperationMix.uniform("obj", obj.datatype.invocations())
        generator = WorkloadGenerator(
            cluster.sim,
            cluster.tm,
            cluster.frontends,
            mix,
            ops_per_transaction=2,
            concurrency=3,
        )
        for _batch in range(4):
            generator.run(10)
            compact(cluster.network, cluster.repositories, obj, cluster.tm)
        # Logs stay bounded (only uncommitted/recent entries remain)...
        assert max(r.entry_count("obj") for r in cluster.repositories) <= 4
        # ...while the recorder's full history — which the runtime never
        # replays anymore — still certifies the whole execution.
        checker = HybridAtomicity(obj.datatype, LegalityOracle(obj.datatype))
        assert checker.admits(obj.recorder.to_behavioral_history())


class TestCompactionBoundsStorage:
    """The same Queue workload with and without compaction after each
    batch of 20 transactions (40 operations): compaction bounds what
    every repository stores, and every entry table a log sits on."""

    BATCHES = 8
    TRANSACTIONS_PER_BATCH = 20

    def _run(self, compaction: bool):
        cluster, obj = queue_system("hybrid", seed=31)
        mix = OperationMix.uniform("obj", obj.datatype.invocations())
        generator = WorkloadGenerator(
            cluster.sim,
            cluster.tm,
            cluster.frontends,
            mix,
            ops_per_transaction=2,
            concurrency=3,
        )
        sizes, tables = [], []
        for _batch in range(self.BATCHES):
            generator.run(self.TRANSACTIONS_PER_BATCH)
            if compaction:
                compact(cluster.network, cluster.repositories, obj, cluster.tm)
            sizes.append(max(r.entry_count("obj") for r in cluster.repositories))
            logs = [r.peek_log("obj") for r in cluster.repositories]
            for frontend in cluster.frontends:
                cached = frontend.view_cache._entries.get("obj")
                if cached is not None:
                    logs += [cached.raw, cached.filtered]
            tables.append(max(len(log._table.arrival) for log in logs))
        return obj, sizes, tables

    def test_compaction_bounds_logs_and_tables(self):
        _obj, plain_sizes, plain_tables = self._run(compaction=False)
        obj, compacted_sizes, compacted_tables = self._run(compaction=True)
        assert plain_sizes[-1] > 4 * max(1, compacted_sizes[-1])
        assert all(size <= 6 for size in compacted_sizes)
        # A compacted log starts a table of its own, so no table holds
        # more than one batch's 40 entries; without compaction one table
        # holds the whole history.
        assert all(size <= 2 * self.TRANSACTIONS_PER_BATCH for size in compacted_tables)
        assert plain_tables[-1] >= plain_sizes[-1] > 2 * self.TRANSACTIONS_PER_BATCH
        # The compacted run's full execution record still certifies.
        checker = HybridAtomicity(obj.datatype, LegalityOracle(obj.datatype))
        assert checker.admits(obj.recorder.to_behavioral_history())
