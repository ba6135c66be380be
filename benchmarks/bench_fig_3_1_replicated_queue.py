"""Figure 3-1 — a queue replicated among three repositories.

Runs the actual quorum-consensus system: transactions enqueue and
dequeue through front-ends; the per-repository logs are then rendered in
the layout of the paper's schematic, showing the partial replication of
log entries (each final quorum wrote a majority, not all, of the
repositories).  The run is traced, and the full span forest is written
to ``benchmarks/results/traces/`` as a JSONL artifact.
"""

import pathlib

from conftest import report

from repro.atomicity.properties import HybridAtomicity
from repro.core.report import figure_3_1
from repro.dependency import known
from repro.histories.events import Invocation
from repro.obs import Tracer, to_jsonl
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec
from repro.spec.legality import LegalityOracle
from repro.types import Queue

TRACES_DIR = pathlib.Path(__file__).parent / "results" / "traces"


def _run_queue_system():
    queue = Queue(items=("x", "y"))
    relation = known.ground(queue, known.QUEUE_STATIC, 5)
    spec = KeyspaceSpec(3, (ObjectSpec("queue", queue, relation=relation),))
    cluster = build_keyspace(spec, seed=17, tracer=Tracer())
    obj = cluster.tm.object("queue")
    script = [
        ("Enq", ("x",)),
        ("Enq", ("y",)),
        ("Deq", ()),
        ("Enq", ("x",)),
        ("Deq", ()),
    ]
    for index, (op, args) in enumerate(script):
        frontend = cluster.frontends[index % 3]
        txn = cluster.tm.begin(frontend.site)
        frontend.execute(txn, "queue", Invocation(op, args))
        cluster.tm.commit(txn)
    return cluster, obj


def test_fig_3_1_replicated_queue(benchmark):
    cluster, obj = benchmark.pedantic(_run_queue_system, rounds=1, iterations=1)

    # Entries are partially replicated: every repository holds some but
    # (with majority final quorums started at different sites) the union
    # is strictly bigger than at least one fragment.
    counts = [repo.entry_count("queue") for repo in cluster.repositories]
    assert all(count > 0 for count in counts)
    merged = cluster.repositories[0].read_log("queue")
    for repo in cluster.repositories[1:]:
        merged = merged.merge(repo.read_log("queue"))
    assert len(merged) == 5
    assert min(counts) < 5

    history = obj.recorder.to_behavioral_history()
    checker = HybridAtomicity(obj.datatype, LegalityOracle(obj.datatype))
    assert checker.admits(history)

    spans = cluster.tracer.spans
    operations = [s for s in spans if s.kind == "operation"]
    assert len(operations) == 5 and all(s.outcome == "ok" for s in operations)
    TRACES_DIR.mkdir(parents=True, exist_ok=True)
    artifact = TRACES_DIR / "fig_3_1_replicated_queue.jsonl"
    artifact.write_text(to_jsonl(spans) + "\n")

    text = figure_3_1(list(cluster.repositories), "queue")
    text += "\n\nper-repository entry counts: " + ", ".join(map(str, counts))
    text += f"\ntrace: {len(spans)} spans -> results/traces/{artifact.name}"
    report("fig_3_1_replicated_queue", text)
