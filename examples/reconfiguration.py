"""Online quorum reconfiguration: adapting availability to the workload.

A replicated queue starts read-optimized (initial quorums of 1, final
quorums of all sites), serves a read-heavy phase, is *reconfigured
online* to a balanced majority layout when writes pick up, and keeps all
its data across the hand-over — with the global history still hybrid
atomic.  Finally, a partition demonstrates that reconfiguration itself
obeys quorum rules: the minority side cannot reconfigure.

Run:  python examples/reconfiguration.py
"""

from repro.atomicity.properties import HybridAtomicity
from repro.dependency import known
from repro.errors import UnavailableError
from repro.histories.events import Invocation
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.coterie import ThresholdCoterie
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec
from repro.replication.reconfig import reconfigure
from repro.spec.legality import LegalityOracle
from repro.types import Queue


def threshold_assignment(n: int, init: int, final: int) -> QuorumAssignment:
    quorums = OperationQuorums(
        initial=ThresholdCoterie(n, init), final=ThresholdCoterie(n, final)
    )
    return QuorumAssignment(n, {"Enq": quorums, "Deq": quorums})


def main() -> None:
    n = 5
    queue = Queue(items=("x", "y"))
    relation = known.ground(queue, known.QUEUE_STATIC, depth=5)
    read_optimized = threshold_assignment(n, init=1, final=n)
    jobs = ObjectSpec(
        "jobs", queue, "hybrid", assignment=read_optimized, relation=relation
    )
    cluster = build_keyspace(KeyspaceSpec(n, (jobs,)), seed=11)
    obj = cluster.tm.object("jobs")
    print("initial assignment (read-optimized):")
    print("  " + obj.assignment.describe().replace("\n", "\n  "))

    txn = cluster.tm.begin(0)
    cluster.frontends[0].execute(txn, "jobs", Invocation("Enq", ("x",)))
    cluster.tm.commit(txn)
    print("\nenqueued x under the read-optimized layout")

    balanced = threshold_assignment(n, init=3, final=3)
    reconfigure(cluster.network, cluster.repositories, obj, balanced)
    print("\nreconfigured to balanced majorities:")
    print("  " + obj.assignment.describe().replace("\n", "\n  "))

    txn = cluster.tm.begin(2)
    cluster.frontends[2].execute(txn, "jobs", Invocation("Enq", ("y",)))
    response = cluster.frontends[2].execute(txn, "jobs", Invocation("Deq"))
    cluster.tm.commit(txn)
    print(f"\nafter hand-over, Deq -> {response}  (pre-reconfiguration data intact)")

    cluster.network.partition({0, 1}, {2, 3, 4})
    try:
        reconfigure(
            cluster.network,
            cluster.repositories,
            obj,
            read_optimized,
            coordinator_site=0,
        )
        print("minority reconfigured (should not happen!)")
    except UnavailableError as failure:
        print(f"\nminority side cannot reconfigure: {failure}")
    cluster.network.heal()

    history = obj.recorder.to_behavioral_history()
    checker = HybridAtomicity(queue, LegalityOracle(queue))
    print("\nglobal history hybrid atomic:", checker.admits(history))
    assert checker.admits(history)


if __name__ == "__main__":
    main()
