"""Quickstart: a replicated FIFO queue under hybrid atomicity.

Builds a three-site cluster, replicates a Queue with majority quorums,
runs a few transactions through front-ends at different sites, and then
does what the paper is about: checks that the execution's behavioral
history lies in ``Hybrid(Queue)`` using the same machinery that verifies
the paper's theorems.

Run:  python examples/quickstart.py
"""

from repro.atomicity.properties import HybridAtomicity
from repro.core.report import figure_3_1
from repro.histories.events import Invocation
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec
from repro.spec.legality import LegalityOracle
from repro.types import Queue


def main() -> None:
    # 1. A replicated Queue.  The hybrid concurrency-control scheme needs
    #    a hybrid dependency relation for its conflict table; given none,
    #    the spec resolves the Queue's minimal static relation, which is
    #    one (every static dependency relation is a hybrid dependency
    #    relation — Theorem 4).
    queue = Queue(items=("x", "y"))
    jobs = ObjectSpec("jobs", queue, scheme="hybrid")

    # 2. A cluster: simulator + network + 3 repositories + front-ends,
    #    with the queue replicated at every site under majority quorums.
    cluster = build_keyspace(KeyspaceSpec(3, (jobs,)), seed=7)
    obj = cluster.tm.object("jobs")

    # 3. Transactions through front-ends at different sites.
    producer_fe = cluster.frontends[0]
    consumer_fe = cluster.frontends[2]

    producer = cluster.tm.begin(site=0)
    print("producer enqueues x:", producer_fe.execute(producer, "jobs", Invocation("Enq", ("x",))))
    print("producer enqueues y:", producer_fe.execute(producer, "jobs", Invocation("Enq", ("y",))))
    cluster.tm.commit(producer)

    consumer = cluster.tm.begin(site=2)
    response = consumer_fe.execute(consumer, "jobs", Invocation("Deq"))
    print("consumer dequeues  :", response, "(FIFO: x came first)")
    cluster.tm.commit(consumer)

    # 4. The replicated state, exactly as in the paper's Figure 3-1.
    print()
    print(figure_3_1(list(cluster.repositories), "jobs"))

    # 5. Close the loop with the theory kernel: the global history must
    #    be a member of Hybrid(Queue).
    history = obj.recorder.to_behavioral_history()
    checker = HybridAtomicity(queue, LegalityOracle(queue))
    print()
    print("behavioral history of the run:")
    print(history)
    print()
    print("history is hybrid atomic:", checker.admits(history))


if __name__ == "__main__":
    main()
