"""Related-work contrast (Section 2): available copies vs quorum consensus.

"Unlike quorum consensus methods, the available copies method does not
preserve serializability in the presence of communication link failures
such as partitions."

The same partitioned scenario runs under both methods:

* **available copies** — both sides of the partition keep executing;
  the same queue item is dequeued twice; the combined history is not
  serializable in any order;
* **quorum consensus** — the minority side becomes unavailable; the
  majority side proceeds; the history remains hybrid atomic.
"""

from conftest import report

from repro.atomicity.properties import (
    HybridAtomicity,
    is_serializable_in_some_order,
)
from repro.errors import UnavailableError
from repro.histories.events import Invocation, ok
from repro.replication.available_copies import AvailableCopiesObject
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec
from repro.dependency import known
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.trials import run_trials, seed_range
from repro.spec.legality import LegalityOracle
from repro.types import Queue

ENQ_X = Invocation("Enq", ("x",))
DEQ = Invocation("Deq")


def _run_available_copies():
    network = Network(Simulator(seed=0), 3)
    obj = AvailableCopiesObject("q", Queue(), network)
    obj.execute(0, ENQ_X)
    network.partition({0}, {1, 2})
    left = obj.execute(0, DEQ)
    right = obj.execute(1, DEQ)
    history = obj.to_behavioral_history()
    serializable = is_serializable_in_some_order(LegalityOracle(Queue()), history)
    return left, right, history, serializable


def _run_quorum_consensus(seed: int = 0):
    queue = Queue()
    relation = known.ground(queue, known.QUEUE_STATIC, 5)
    spec = KeyspaceSpec(3, (ObjectSpec("q", queue, relation=relation),))
    cluster = build_keyspace(spec, seed=seed)
    obj = cluster.tm.object("q")
    txn = cluster.tm.begin(0)
    cluster.frontends[0].execute(txn, "q", ENQ_X)
    cluster.tm.commit(txn)
    cluster.network.partition({0}, {1, 2})

    minority_outcome = "?"
    minority_txn = cluster.tm.begin(0)
    try:
        cluster.frontends[0].execute(minority_txn, "q", DEQ)
    except UnavailableError:
        minority_outcome = "UNAVAILABLE"
        cluster.tm.abort(minority_txn, "partitioned")

    majority_txn = cluster.tm.begin(1)
    majority_response = cluster.frontends[1].execute(majority_txn, "q", DEQ)
    cluster.tm.commit(majority_txn)

    history = obj.recorder.to_behavioral_history()
    admitted = HybridAtomicity(queue, LegalityOracle(queue)).admits(history)
    return minority_outcome, majority_response, admitted


def _quorum_partition_trial(seed: int) -> tuple:
    """One seeded partition scenario, compact and picklable for sharding."""
    minority_outcome, majority_response, admitted = _run_quorum_consensus(seed)
    return minority_outcome, str(majority_response), admitted


def test_available_copies_vs_quorum_consensus(benchmark, bench_jobs):
    def run_both():
        return _run_available_copies(), _run_quorum_consensus()

    (ac, qc) = benchmark.pedantic(run_both, rounds=1, iterations=1)
    left, right, ac_history, ac_serializable = ac
    minority_outcome, majority_response, qc_admitted = qc

    assert left == ok("x") and right == ok("x")
    assert not ac_serializable
    assert minority_outcome == "UNAVAILABLE"
    assert majority_response == ok("x")
    assert qc_admitted

    # Safety is not a property of one lucky seed: sweep the partition
    # scenario across a seed range (sharded across --jobs processes when
    # asked) and require the same verdict from every trial.
    sweep, _ = run_trials(
        _quorum_partition_trial, seed_range(0, 6), jobs=bench_jobs
    )
    assert all(
        trial == ("UNAVAILABLE", str(ok("x")), True) for trial in sweep
    )

    lines = [
        "Scenario: Enq(x); partition {0} | {1,2}; both sides attempt Deq.",
        "",
        "AVAILABLE COPIES (read any available, write all available):",
        f"  minority side Deq -> {left}",
        f"  majority side Deq -> {right}",
        f"  combined history serializable in some order: {ac_serializable}",
        "  -> the single enqueued item was consumed twice.",
        "",
        "QUORUM CONSENSUS (majority initial/final quorums, hybrid CC):",
        f"  minority side Deq -> {minority_outcome}",
        f"  majority side Deq -> {majority_response}",
        f"  history hybrid atomic: {qc_admitted}",
        "  -> safety preserved; the partition costs availability instead.",
    ]
    report("available_copies_contrast", "\n".join(lines))
