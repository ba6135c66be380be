"""Log compaction: bounded storage with unchanged semantics.

Quorum-consensus logs grow with every operation; type-safe compaction
(fold committed events into a snapshot state, discard aborted garbage)
keeps per-repository storage bounded by the *active* working set rather
than history length.  The benchmark runs the same workload with and
without periodic compaction and reports log sizes over time; the
compacted run's histories still certify as hybrid atomic — against the
full, uncompacted execution record.
"""

from conftest import report

from repro.atomicity.properties import HybridAtomicity
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec
from repro.replication.snapshot import compact
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.spec.legality import LegalityOracle
from repro.types import Queue

BATCHES = 5
TRANSACTIONS_PER_BATCH = 20


def _run(compaction: bool, seed: int = 31):
    queue = Queue()
    spec = KeyspaceSpec(3, (ObjectSpec("obj", queue),))
    cluster = build_keyspace(spec, seed=seed)
    obj = cluster.tm.object("obj")
    mix = OperationMix.uniform("obj", queue.invocations())
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        mix,
        ops_per_transaction=2,
        concurrency=3,
    )
    sizes = []
    for _batch in range(BATCHES):
        generator.run(TRANSACTIONS_PER_BATCH)
        if compaction:
            compact(cluster.network, cluster.repositories, obj, cluster.tm)
        sizes.append(max(r.entry_count("obj") for r in cluster.repositories))
    return cluster, obj, sizes


def test_log_compaction_bounds_storage(benchmark):
    def run_both():
        return _run(compaction=False), _run(compaction=True)

    (_c1, _obj_plain, plain_sizes), (_c2, obj_compacted, compacted_sizes) = (
        benchmark.pedantic(run_both, rounds=1, iterations=1)
    )

    assert plain_sizes[-1] > 4 * max(1, compacted_sizes[-1])
    assert all(size <= 6 for size in compacted_sizes)

    checker = HybridAtomicity(Queue(), LegalityOracle(Queue()))
    assert checker.admits(obj_compacted.recorder.to_behavioral_history())

    lines = [
        f"Replicated Queue, {BATCHES} batches × {TRANSACTIONS_PER_BATCH} "
        "transactions, majority quorums:",
        "",
        f"{'batch':>6} {'no compaction':>14} {'with compaction':>16}",
    ]
    for index, (plain, compacted) in enumerate(zip(plain_sizes, compacted_sizes)):
        lines.append(f"{index:>6} {plain:>14} {compacted:>16}")
    lines.append("")
    lines.append(
        "(sizes are max per-repository log entries; the compacted run's "
        "residue is\nuncommitted in-flight entries only — and its full "
        "execution history still\ncertifies as hybrid atomic.)"
    )
    report("log_compaction", "\n".join(lines))
