"""Keyspace scale: throughput as the object count grows under sharding.

Sweeps the number of objects in a ring-placed keyspace (replication
factor 3 on five sites) at a fixed transaction budget and reports, per
object count:

* wall-clock seconds and committed transactions per second — the cost
  of spreading one workload over many partially replicated objects;
* messages sent per committed transaction — partial replication should
  *shrink* per-object fan-out (quorums of 3-site replica sets, not the
  whole cluster);
* mean shards per site, the storage-footprint side of the same trade;
* the auditor's verdict, asserted green — a sharded run that violates
  genuine partial replication is a failed benchmark, not a data point.

Results land in ``benchmarks/results/BENCH_keyspace_scale.json`` and
``keyspace_scale.txt``.

Standalone: ``python benchmarks/bench_keyspace_scale.py [--quick]``
(CI's keyspace-smoke job uses ``--quick``).
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter

import pytest

from conftest import emit_json, report

from repro.obs.audit import Auditor
from repro.obs.trace import Tracer
from repro.scenarios import SCENARIOS, build_scenario

pytestmark = pytest.mark.keyspace

OBJECT_COUNTS = (1, 2, 4, 8, 16)
QUICK_OBJECT_COUNTS = (1, 4, 8)
SITES = 5
TRANSACTIONS = 40
QUICK_TRANSACTIONS = 12
SEED = 0
PLACEMENT = "ring"


def _measure_case(n_objects: int, transactions: int) -> dict:
    cluster, generator, _names = build_scenario(
        replace(SCENARIOS["default"], objects=n_objects),
        seed=SEED,
        n_sites=SITES,
        placement=PLACEMENT,
        tracer=Tracer(),
    )
    auditor = Auditor(cluster)
    started = perf_counter()
    generator.run(transactions)
    seconds = perf_counter() - started
    verdict = auditor.finish()
    assert verdict.ok, verdict.render()
    shard_counts = [
        len(cluster.placement.shards_of(site)) for site in range(SITES)
    ]
    commits = cluster.tm.commits
    return {
        "objects": n_objects,
        "transactions": transactions,
        "seconds": seconds,
        "commits": commits,
        "aborts": cluster.tm.aborts,
        "commits_per_second": commits / seconds if seconds else float("inf"),
        "messages_sent": cluster.network.messages_sent,
        "messages_per_commit": (
            cluster.network.messages_sent / commits if commits else 0.0
        ),
        "mean_shards_per_site": sum(shard_counts) / SITES,
        "partial": cluster.placement.is_partial,
        "audit_ok": verdict.ok,
        "audit_operations": verdict.operations,
    }


def _measure(object_counts, transactions) -> dict:
    return {
        "sites": SITES,
        "seed": SEED,
        "placement": PLACEMENT,
        "rows": [_measure_case(n, transactions) for n in object_counts],
    }


def _render(results: dict) -> str:
    lines = [
        f"{'objects':>7} {'txns':>5} {'commits':>7} {'cmt/s':>8} "
        f"{'msgs':>6} {'msg/cmt':>8} {'shards/site':>11}",
        "-" * 58,
    ]
    for row in results["rows"]:
        lines.append(
            f"{row['objects']:>7} {row['transactions']:>5} "
            f"{row['commits']:>7} {row['commits_per_second']:>8.1f} "
            f"{row['messages_sent']:>6} {row['messages_per_commit']:>8.1f} "
            f"{row['mean_shards_per_site']:>11.1f}"
        )
    lines.append(
        f"ring placement (factor 3) on {results['sites']} sites, seed "
        f"{results['seed']}, auditor green on every row"
    )
    return "\n".join(lines)


def _check(results: dict) -> None:
    for row in results["rows"]:
        assert row["audit_ok"], row
        assert row["commits"] > 0, row
        if row["objects"] > 1:
            assert row["partial"], row


def test_keyspace_scale():
    results = _measure(OBJECT_COUNTS, TRANSACTIONS)
    emit_json(
        "keyspace_scale",
        results,
        objects=max(OBJECT_COUNTS),
        placement=PLACEMENT,
    )
    report("keyspace_scale", _render(results))
    _check(results)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="use the trimmed CI sweep"
    )
    args = parser.parse_args(argv)
    counts = QUICK_OBJECT_COUNTS if args.quick else OBJECT_COUNTS
    transactions = QUICK_TRANSACTIONS if args.quick else TRANSACTIONS
    results = _measure(counts, transactions)
    emit_json(
        "keyspace_scale",
        results,
        objects=max(counts),
        placement=PLACEMENT,
    )
    report("keyspace_scale", _render(results))
    _check(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
