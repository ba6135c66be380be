"""End-to-end availability: the PROM example measured on the simulator.

The paper's availability claims are analytic; this benchmark closes the
loop by *running* the replicated PROM under stochastic site crashes and
measuring per-operation availability, for the availability-optimal
quorum assignments permitted by hybrid vs static atomicity (Read pinned
to a single site, as in the Section 4 example).  Expected shape:

* measured availability tracks the exact analytic figure for every
  operation under both assignments;
* Write availability under the hybrid assignment (1-site quorums)
  dominates the static assignment (n-site quorums) by a large factor;
* the static assignment's larger quorums cost more messages per
  operation than the hybrid one's.

Operation latencies are rendered as a table, not asserted: quorum probes
overlap within a phase, so latency counts round trips, not quorum size.
"""

from functools import partial

from conftest import report

from repro.dependency import known
from repro.histories.events import Invocation
from repro.obs.metrics import Histogram
from repro.quorum.availability import operation_availability
from repro.quorum.search import valid_threshold_choices
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec
from repro.sim.failures import CrashInjector
from repro.sim.trials import run_trials, seed_range
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.types import PROM

OPS = ("Read", "Seal", "Write")
N_SITES = 5
MEAN_UPTIME, MEAN_DOWNTIME = 90.0, 10.0
P_UP = MEAN_UPTIME / (MEAN_UPTIME + MEAN_DOWNTIME)
#: Monte Carlo seeds; results come back in seed order, so the pooled
#: statistics are identical whether the sweep ran serially or sharded
#: across ``--jobs`` processes.
SEEDS = seed_range(1, 3)


def _read_maximal_choice(relation):
    """The valid threshold choice with 1-site Reads and smallest Writes."""
    best = None
    for choice in valid_threshold_choices(relation, N_SITES, OPS):
        if choice.initial_of("Read") != 1:
            continue
        write_size = max(choice.initial_of("Write"), choice.final_of("Write"))
        seal_size = max(choice.initial_of("Seal"), choice.final_of("Seal"))
        key = (write_size, seal_size)
        if best is None or key < best[0]:
            best = (key, choice)
    assert best is not None
    return best[1]


def _measure(choice, seed):
    """One seeded run: ``(metrics, messages sent)``."""
    # Message latency small relative to failure timescales, so that an
    # operation samples an effectively instantaneous cluster state (the
    # analytic availability model's assumption).
    prom = PROM()
    relation = known.ground(prom, known.PROM_HYBRID, 5)
    spec = ObjectSpec(
        "prom", prom, "hybrid", assignment=choice.to_assignment(), relation=relation
    )
    cluster = build_keyspace(KeyspaceSpec(N_SITES, (spec,)), seed=seed, latency=0.2)
    CrashInjector(cluster.network, MEAN_UPTIME, MEAN_DOWNTIME).install()
    mix = OperationMix.weighted(
        [
            ("prom", Invocation("Write", ("x",)), 5.0),
            ("prom", Invocation("Write", ("y",)), 5.0),
            ("prom", Invocation("Read"), 10.0),
        ]
    )
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        mix,
        ops_per_transaction=1,
        concurrency=2,
        think_time=1.0,
    )
    metrics = generator.run(600)
    return metrics, cluster.network.messages_sent


def test_prom_availability_measured_vs_analytic(benchmark, bench_jobs):
    prom = PROM()
    hybrid_rel = known.ground(prom, known.PROM_HYBRID, 5)
    static_rel = known.ground(prom, known.PROM_STATIC, 5)
    hybrid_choice = _read_maximal_choice(hybrid_rel)
    static_choice = _read_maximal_choice(static_rel)

    def run_both():
        # Each trial is a pure function of its seed, so the seed list
        # shards across processes (--jobs / REPRO_JOBS) with the pooled
        # aggregates unchanged.
        hybrid_runs, _ = run_trials(
            partial(_measure, hybrid_choice), SEEDS, jobs=bench_jobs
        )
        static_runs, _ = run_trials(
            partial(_measure, static_choice), SEEDS, jobs=bench_jobs
        )
        return hybrid_runs, static_runs

    hybrid_results, static_results = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    hybrid_runs = [metrics for metrics, _sent in hybrid_results]
    static_runs = [metrics for metrics, _sent in static_results]

    def messages_per_op(results):
        """Per seed: messages sent over operations attempted."""
        return [
            sent / sum(metrics.attempts(op) for op in metrics.operations())
            for metrics, sent in results
        ]

    def pooled_availability(runs, op):
        attempts = sum(m.attempts(op) for m in runs)
        unavailable = sum(m.count(op, "unavailable") for m in runs)
        return 1.0 - unavailable / attempts if attempts else float("nan")

    def pooled_latency(runs, op):
        merged = Histogram(op)
        for metrics in runs:
            merged.merge(metrics.latency_histogram(op))
        return merged

    hybrid_assignment = hybrid_choice.to_assignment()
    static_assignment = static_choice.to_assignment()

    lines = [
        f"PROM, n = {N_SITES}, per-site availability p = {P_UP:.2f} "
        f"(uptime {MEAN_UPTIME}, downtime {MEAN_DOWNTIME}), Read pinned to 1 site",
        "",
        f"hybrid assignment: {hybrid_choice.describe()}",
        f"static assignment: {static_choice.describe()}",
        "",
        f"{'operation':<10} {'analytic':>9} {'measured':>9}   (hybrid)"
        f"   {'analytic':>9} {'measured':>9}   (static)",
    ]
    for op in ("Read", "Write"):
        analytic_h = operation_availability(hybrid_assignment, op, P_UP)
        analytic_s = operation_availability(static_assignment, op, P_UP)
        measured_h = pooled_availability(hybrid_runs, op)
        measured_s = pooled_availability(static_runs, op)
        lines.append(
            f"{op:<10} {analytic_h:>9.4f} {measured_h:>9.4f}            "
            f"{analytic_s:>9.4f} {measured_s:>9.4f}"
        )
        assert abs(measured_h - analytic_h) < 0.08
        assert abs(measured_s - analytic_s) < 0.08

    lines.append("")
    lines.append(
        f"{'operation':<10} {'p50':>7} {'p95':>7} {'p99':>7}   (hybrid)"
        f"   {'p50':>7} {'p95':>7} {'p99':>7}   (static)"
    )
    for op in ("Read", "Write"):
        hist_h = pooled_latency(hybrid_runs, op)
        hist_s = pooled_latency(static_runs, op)
        lines.append(
            f"{op:<10} {hist_h.p50:>7.2f} {hist_h.p95:>7.2f} {hist_h.p99:>7.2f}"
            f"            {hist_s.p50:>7.2f} {hist_s.p95:>7.2f} {hist_s.p99:>7.2f}"
        )

    # Larger write quorums mean more probes per operation: static sends
    # more messages per operation than hybrid, seed for seed.
    hybrid_msgs = messages_per_op(hybrid_results)
    static_msgs = messages_per_op(static_results)
    lines.append("")
    lines.append(
        "messages/op by seed: hybrid "
        + ", ".join(f"{m:.2f}" for m in hybrid_msgs)
        + "; static "
        + ", ".join(f"{m:.2f}" for m in static_msgs)
    )
    for hybrid_m, static_m in zip(hybrid_msgs, static_msgs):
        assert static_m > hybrid_m

    hybrid_write = pooled_availability(hybrid_runs, "Write")
    static_write = pooled_availability(static_runs, "Write")
    unavailability_ratio = (1 - static_write) / max(1e-9, 1 - hybrid_write)
    lines.append("")
    lines.append(
        f"Write unavailability ratio static/hybrid: {unavailability_ratio:.1f}×"
    )
    assert hybrid_write > static_write
    assert unavailability_ratio > 3.0
    report("replication_availability", "\n".join(lines))
