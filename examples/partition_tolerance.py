"""Partition tolerance: quorum consensus vs the available-copies method.

The paper (Section 2) contrasts quorum consensus with the available-
copies method, which "does not preserve serializability in the presence
of communication link failures such as partitions".  This example
partitions a five-site cluster and shows what quorum consensus does
instead: the majority side keeps executing, the minority side becomes
*unavailable* (rather than inconsistent), and after the partition heals
the minority serves again — with the global history still hybrid atomic.

Run:  python examples/partition_tolerance.py
"""

from repro.atomicity.properties import HybridAtomicity
from repro.errors import UnavailableError
from repro.histories.events import Invocation
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec
from repro.spec.legality import LegalityOracle
from repro.types import Queue


def attempt(cluster, site: int, invocation) -> str:
    frontend = cluster.frontends[site]
    txn = cluster.tm.begin(site)
    try:
        response = frontend.execute(txn, "queue", invocation)
    except UnavailableError as failure:
        cluster.tm.abort(txn, str(failure))
        return f"site {site}: UNAVAILABLE ({failure})"
    cluster.tm.commit(txn)
    return f"site {site}: {invocation} -> {response}"


def main() -> None:
    queue = Queue(items=("x", "y"))
    spec = KeyspaceSpec(5, (ObjectSpec("queue", queue, "hybrid"),))
    cluster = build_keyspace(spec, seed=99)
    obj = cluster.tm.object("queue")

    print("— healthy cluster —")
    print(attempt(cluster, 0, Invocation("Enq", ("x",))))

    print()
    print("— partition {0,1} | {2,3,4} —")
    cluster.network.partition({0, 1}, {2, 3, 4})
    print(attempt(cluster, 0, Invocation("Enq", ("y",))), " (minority side)")
    print(attempt(cluster, 3, Invocation("Enq", ("y",))), " (majority side)")
    print(attempt(cluster, 3, Invocation("Deq")), " (majority still serializable)")

    print()
    print("— partition heals —")
    cluster.network.heal()
    print(attempt(cluster, 0, Invocation("Deq")), " (minority recovered)")
    print(attempt(cluster, 1, Invocation("Deq")), " (queue drained: Empty)")

    history = obj.recorder.to_behavioral_history()
    checker = HybridAtomicity(queue, LegalityOracle(queue))
    print()
    print("global history hybrid atomic:", checker.admits(history))
    assert checker.admits(history)


if __name__ == "__main__":
    main()
