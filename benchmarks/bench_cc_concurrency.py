"""End-to-end concurrency: the three schemes on identical workloads.

Figure 1-1's concurrency ordering, measured: the same seeded workload is
driven through the replicated Queue under each concurrency-control
scheme, and the per-operation conflict rates and transaction commit
rates are compared.  Expected shape:

* concurrent enqueues of distinct items conflict under commutativity
  locking (they do not commute) but not under hybrid atomicity (any
  commit order serializes them) — so the hybrid Enq conflict rate is
  strictly lower than the locking one;
* every scheme's histories satisfy its own atomicity property (checked
  in the integration tests; here we check everything terminates and
  report the rates).
"""

from conftest import report

from repro.obs.metrics import Histogram
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.types import Counter, Queue


def _run(scheme: str, datatype, relation, seeds, transactions=60):
    """Pool metrics over several seeds for one scheme."""
    pooled = []
    for seed in seeds:
        spec = KeyspaceSpec(3, (ObjectSpec("obj", datatype, scheme, relation=relation),))
        cluster = build_keyspace(spec, seed=seed)
        mix = OperationMix.uniform("obj", datatype.invocations())
        generator = WorkloadGenerator(
            cluster.sim,
            cluster.tm,
            cluster.frontends,
            mix,
            ops_per_transaction=3,
            concurrency=4,
        )
        pooled.append(generator.run(transactions))
    return pooled


def _pooled_rate(runs, op, outcome):
    attempts = sum(m.attempts(op) for m in runs)
    hits = sum(m.count(op, outcome) for m in runs)
    return hits / attempts if attempts else float("nan")


def _pooled_commit_rate(runs):
    commits = sum(m.committed_transactions for m in runs)
    aborts = sum(m.aborted_transactions for m in runs)
    return commits / (commits + aborts)


def _pooled_latency(runs, ops):
    """All operations' latency samples pooled into one histogram."""
    merged = Histogram()
    for metrics in runs:
        for op in ops:
            merged.merge(metrics.latency_histogram(op))
    return merged


def test_cc_concurrency_queue(benchmark):
    seeds = (1, 2, 3, 4)

    def run_all():
        return {
            scheme: _run(scheme, Queue(), None, seeds)
            for scheme in ("hybrid", "static", "dynamic")
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        "Replicated Queue, 3 sites, uniform Enq/Deq mix, 4-way concurrency,",
        f"{len(seeds)} seeds × 60 transactions per scheme:",
        "",
        f"{'scheme':<9} {'commit%':>8} {'Enq conflict%':>14} {'Deq conflict%':>14}"
        f" {'lat p50':>8} {'lat p95':>8} {'lat p99':>8}",
    ]
    rates = {}
    for scheme, runs in results.items():
        commit = _pooled_commit_rate(runs)
        enq = _pooled_rate(runs, "Enq", "conflict")
        deq = _pooled_rate(runs, "Deq", "conflict")
        rates[scheme] = (commit, enq, deq)
        latency = _pooled_latency(runs, ("Enq", "Deq"))
        assert latency.count > 0  # the workload feeds the histograms
        lines.append(
            f"{scheme:<9} {100 * commit:>7.1f}% {100 * enq:>13.1f}% "
            f"{100 * deq:>13.1f}%"
            f" {latency.p50:>8.2f} {latency.p95:>8.2f} {latency.p99:>8.2f}"
        )

    # Hybrid permits concurrent distinct enqueues; locking must conflict.
    assert rates["hybrid"][1] < rates["dynamic"][1]
    report("cc_concurrency_queue", "\n".join(lines))


def test_cc_concurrency_counter(benchmark):
    from repro.dependency.static_dep import minimal_static_dependency

    counter = Counter()
    # The static relation is a valid hybrid relation too (Theorem 4).
    relation = minimal_static_dependency(counter, 3)
    seeds = (1, 2, 3)

    def run_all():
        return {
            scheme: _run(scheme, Counter(), relation, seeds)
            for scheme in ("hybrid", "static", "dynamic")
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = [
        "Replicated Counter, 3 sites, uniform Inc/Dec/Read mix:",
        "",
        f"{'scheme':<9} {'commit%':>8} {'Inc conflict%':>14} "
        f"{'Read conflict%':>15}",
    ]
    for scheme, runs in results.items():
        lines.append(
            f"{scheme:<9} {100 * _pooled_commit_rate(runs):>7.1f}% "
            f"{100 * _pooled_rate(runs, 'Inc', 'conflict'):>13.1f}% "
            f"{100 * _pooled_rate(runs, 'Read', 'conflict'):>14.1f}%"
        )
        commits = sum(m.committed_transactions for m in runs)
        assert commits > 0
    report("cc_concurrency_counter", "\n".join(lines))
