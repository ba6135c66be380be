"""Replication-runtime throughput: overlapped fan-out, event queue, sharding.

Measurements over the replicated-queue workload, asserting the
throughput engine's core claims:

* **pinned simulated throughput** — the seeded queue workload's
  fingerprint (outcomes, message counters, availability) and its exact
  operations per simulated second are pinned (``PINNED``).  Simulated
  time is the deterministic metric the paper's latency and availability
  results are stated in, so the pins are exact and machine-independent.
  They were taken where a one-request-at-a-time front-end produced the
  same fingerprint at a third of the simulated throughput (0.083 vs
  0.244 ops/sim-s at 400 transactions), and a dataclass-heap event
  queue the same fingerprint and throughput, byte for byte.
* **ops/wall-second is recorded, never asserted** — wall time is a fact
  about the host: the run is timed ``WALL_REPEATS`` times and every
  sample is written down beside the best one.  The gate on it is the
  repo benchmark's (``perf/compare.py`` over ``short-history`` /
  ``long-history`` ``ops_per_s``, parent against change on one host).
* **sharded ≡ one job** — aggregates of a Monte Carlo seed sweep must
  be byte-identical across jobs = 1, 2, and ``TRIAL_JOBS``, and
  likewise for the full run's larger soak sweep (``SOAK_SEEDS`` seeds ×
  ``SOAK_TRANSACTIONS`` transactions).  The sharding speed-ups are
  recorded in ``benchmarks/results/BENCH_sim_throughput.json`` and not
  asserted: at these sizes pool start-up and pickling on a busy 2-CPU
  host decide them (0.2–0.9× measured), not the code under test.

All claims are *pure performance*: fingerprints must stay on their pins
and be byte-identical across job counts — asserted here and enforced
more broadly by ``tests/test_sim_throughput.py``.

Standalone: ``python benchmarks/bench_sim_throughput.py [--quick]``
(CI's smoke job uses ``--quick``).
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter

from conftest import emit_json, record_parallelism, report

from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec
from repro.sim.trials import available_cpus, run_trials, seed_range
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.types import Queue

SITES = 5
TRANSACTIONS = 400
QUICK_TRANSACTIONS = 120
TRIAL_SEEDS = 8
QUICK_TRIAL_SEEDS = 4
TRIAL_TRANSACTIONS = 40
TRIAL_JOBS = 4
SOAK_SEEDS = 24
SOAK_TRANSACTIONS = 200
WALL_REPEATS = 3

#: transactions -> (fingerprint SHA-256, exact ops per simulated second)
#: of the seed-0 queue workload on ``SITES`` sites.
PINNED = {
    TRANSACTIONS: (
        "055d5c6da0f03be95e08de2b8cb5e9ebdb0d308d7a6414e5756873c09860f9d4",
        0.2439024390243917,
    ),
    QUICK_TRANSACTIONS: (
        "e84d762895266f378b5806a9d4e95fd596b456568981b338adacda4254e4397a",
        0.24390243902438974,
    ),
}


def _queue_cluster(queue, n_sites: int, seed: int):
    spec = KeyspaceSpec(n_sites, (ObjectSpec("queue", queue),))
    return build_keyspace(spec, seed=seed)


def _queue_workload(seed: int, transactions: int, n_sites: int):
    queue = Queue()
    cluster = _queue_cluster(queue, n_sites, seed)
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        OperationMix.uniform("queue", queue.invocations()),
        ops_per_transaction=1,
        concurrency=4,
    )
    metrics = generator.run(transactions)
    return cluster, metrics


def _fingerprint(cluster, metrics) -> dict:
    """Everything a pure performance change must not move, JSON-shaped."""
    return {
        "outcomes": sorted(
            [op, outcome, count]
            for (op, outcome), count in metrics.outcomes.items()
        ),
        "messages_sent": cluster.network.messages_sent,
        "messages_dropped": cluster.network.messages_dropped,
        "availability": {
            op: metrics.availability(op) for op in metrics.operations()
        },
    }


def _measure_ops(transactions: int) -> dict:
    """Simulated throughput against its pin; wall time recorded."""
    # Wall time is host-load-dependent: the best of WALL_REPEATS identical
    # runs is reported and every sample is recorded.
    samples = []
    for _ in range(WALL_REPEATS):
        started = perf_counter()
        cluster, metrics = _queue_workload(0, transactions, SITES)
        samples.append(perf_counter() - started)
    wall = min(samples)
    attempts = sum(metrics.attempts(op) for op in metrics.operations())
    fingerprint = _fingerprint(cluster, metrics)
    digest = hashlib.sha256(
        json.dumps(fingerprint, sort_keys=True).encode()
    ).hexdigest()
    ops_per_sim_second = attempts / cluster.sim.now
    return {
        "transactions": transactions,
        "sites": SITES,
        "wall_seconds": wall,
        "wall_samples": samples,
        "sim_seconds": cluster.sim.now,
        "operations": attempts,
        "ops_per_sim_second": ops_per_sim_second,
        "ops_per_wall_second": attempts / wall if wall else float("inf"),
        "fingerprint": fingerprint,
        "view_cache": cluster.frontends[0].view_cache.stats(),
        "on_pin": PINNED.get(transactions) == (digest, ops_per_sim_second),
    }


def _crash_trial(seed: int, transactions: int) -> tuple:
    """One Monte Carlo trial: a seeded queue workload with a mid-run crash.

    A pure function of its arguments, so it shards across worker
    processes with byte-identical results.
    """
    queue = Queue()
    cluster = _queue_cluster(queue, 3, seed)
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        OperationMix.uniform("queue", queue.invocations()),
        ops_per_transaction=1,
        concurrency=2,
    )
    generator.run(transactions // 2)
    cluster.network.crash(2)
    metrics = generator.run(transactions // 2)
    cluster.network.recover(2)
    return (
        tuple(
            (op, round(metrics.availability(op), 9))
            for op in metrics.operations()
        ),
        cluster.network.messages_sent,
        cluster.network.messages_dropped,
    )


def _availability_trial(seed: int) -> tuple:
    """Module-level (picklable) standard-size trial."""
    return _crash_trial(seed, TRIAL_TRANSACTIONS)


def _soak_trial(seed: int) -> tuple:
    """Module-level (picklable) soak-size trial."""
    return _crash_trial(seed, SOAK_TRANSACTIONS)


def _sweep(trial, seeds: list[int], jobs: int) -> tuple[list, bool, float]:
    """Time one ``run_trials`` sweep; returns (results, pool_used, wall)."""
    started = perf_counter()
    results, parallel_used = run_trials(trial, seeds, jobs=jobs)
    return results, parallel_used, perf_counter() - started


def _measure_trials(n_seeds: int) -> dict:
    """Sharded Monte Carlo sweeps: jobs 1 vs 2 vs TRIAL_JOBS, same seeds."""
    seeds = list(seed_range(0, n_seeds))
    one_job, _, one_job_seconds = _sweep(_availability_trial, seeds, 1)
    two_jobs, _, _ = _sweep(_availability_trial, seeds, 2)
    sharded, parallel_used, sharded_seconds = _sweep(
        _availability_trial, seeds, TRIAL_JOBS
    )
    return {
        "seeds": seeds,
        "trial_transactions": TRIAL_TRANSACTIONS,
        "one_job_seconds": one_job_seconds,
        "sharded_seconds": sharded_seconds,
        "trials_per_second_one_job": (
            len(seeds) / one_job_seconds if one_job_seconds else float("inf")
        ),
        "trials_per_second_sharded": (
            len(seeds) / sharded_seconds if sharded_seconds else float("inf")
        ),
        "trials_speedup": (
            one_job_seconds / sharded_seconds
            if sharded_seconds
            else float("inf")
        ),
        "jobs": TRIAL_JOBS,
        "parallel_used": parallel_used,
        "cpus": available_cpus(),
        "byte_identical_shards": one_job == sharded,
        "byte_identical_jobs2": one_job == two_jobs,
    }


def _measure_soak(n_seeds: int) -> dict:
    """The multicore soak: a sweep big enough that pool startup is noise."""
    seeds = list(seed_range(0, n_seeds))
    one_job, _, one_job_seconds = _sweep(_soak_trial, seeds, 1)
    sharded, parallel_used, sharded_seconds = _sweep(
        _soak_trial, seeds, TRIAL_JOBS
    )
    return {
        "seeds": n_seeds,
        "trial_transactions": SOAK_TRANSACTIONS,
        "one_job_seconds": one_job_seconds,
        "sharded_seconds": sharded_seconds,
        "speedup": (
            one_job_seconds / sharded_seconds
            if sharded_seconds
            else float("inf")
        ),
        "jobs": TRIAL_JOBS,
        "parallel_used": parallel_used,
        "cpus": available_cpus(),
        "byte_identical_shards": one_job == sharded,
    }


def _measure(transactions: int, n_seeds: int, *, soak: bool) -> dict:
    return {
        "ops": _measure_ops(transactions),
        "trials": _measure_trials(n_seeds),
        "soak": _measure_soak(SOAK_SEEDS) if soak else None,
    }


def _render(results: dict) -> str:
    ops, trials = results["ops"], results["trials"]
    samples = ", ".join(f"{s:.3f}" for s in ops["wall_samples"])
    lines = [
        f"queue workload: {ops['transactions']} transactions, "
        f"{ops['sites']} sites, majority quorums",
        f"throughput: {ops['ops_per_sim_second']!r} ops/sim-s  "
        f"({ops['wall_seconds']:.3f}s wall, best of [{samples}])",
        f"ops/wall-s: {ops['ops_per_wall_second']:.2f} (recorded)",
        f"view cache: {ops['view_cache']}",
        f"fingerprint and ops/sim-s on their pins: {ops['on_pin']}",
        f"trial sweep: {len(trials['seeds'])} seeds x "
        f"{trials['trial_transactions']} transactions",
        f"1 job:  {trials['trials_per_second_one_job']:>8.2f} trials/s",
        f"{trials['jobs']} jobs: {trials['trials_per_second_sharded']:>8.2f} "
        f"trials/s ({trials['trials_speedup']:.2f}x, "
        f"{'pool' if trials['parallel_used'] else 'serial fallback'}, "
        f"{trials['cpus']} cpu(s))",
        f"shards byte-identical: {trials['byte_identical_shards']} "
        f"(jobs=2: {trials['byte_identical_jobs2']})",
    ]
    soak = results["soak"]
    if soak is not None:
        lines.append(
            f"soak: {soak['seeds']} seeds x {soak['trial_transactions']} "
            f"transactions, {soak['speedup']:.2f}x over {soak['jobs']} jobs "
            f"({'pool' if soak['parallel_used'] else 'serial fallback'}, "
            f"{soak['cpus']} cpu(s), "
            f"byte-identical: {soak['byte_identical_shards']})"
        )
    return "\n".join(lines)


def _check(results: dict) -> None:
    ops, trials = results["ops"], results["trials"]
    assert ops["on_pin"], (
        f"queue workload left its pin: {ops['fingerprint']}, "
        f"{ops['ops_per_sim_second']!r} ops/sim-s"
    )
    assert trials["byte_identical_shards"], (
        "sharded sweep diverged from the one-job sweep"
    )
    assert trials["byte_identical_jobs2"], (
        "jobs=2 sweep diverged from the one-job sweep"
    )
    soak = results["soak"]
    if soak is not None:
        assert soak["byte_identical_shards"], (
            "soak sweep diverged from its one-job sweep"
        )


def _emit(results: dict) -> None:
    soak = results["soak"]
    engaged = results["trials"]["parallel_used"] or bool(
        soak is not None and soak["parallel_used"]
    )
    speedup = (
        soak["speedup"] if soak is not None else results["trials"]["trials_speedup"]
    )
    record_parallelism(engaged, speedup)
    emit_json("sim_throughput", results)
    report("sim_throughput", _render(results))
    _check(results)


def test_sim_throughput():
    _emit(_measure(TRANSACTIONS, TRIAL_SEEDS, soak=True))


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="use the trimmed CI sizes"
    )
    args = parser.parse_args(argv)
    results = (
        _measure(QUICK_TRANSACTIONS, QUICK_TRIAL_SEEDS, soak=False)
        if args.quick
        else _measure(TRANSACTIONS, TRIAL_SEEDS, soak=True)
    )
    _emit(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
