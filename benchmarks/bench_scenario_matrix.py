"""The scenario matrix: catalog × chaos profiles × atomicity mechanisms.

Runs every catalog scenario (``repro.scenarios.SCENARIOS``) under every
chaos profile (``none`` plus crash/partition/churn/mixed) and all three
of the paper's atomicity mechanisms (blocking, multiversion, hybrid) —
the full empirical surface behind "hybrid permits a wider range of
trade-offs", rather than three point benchmarks.  Every cell is
streaming-audited at full speed; a cell with an audit violation, a
divergent replica, or unaccounted work is a failed benchmark, not a
data point.  The payload also pins ``default_matches_legacy``: the
compiled ``default`` scenario's fingerprint must equal the hand-built
legacy workload's, byte for byte.

Results land in ``benchmarks/results/BENCH_scenario_matrix.json`` and
``scenario_matrix.txt``.

Standalone: ``python benchmarks/bench_scenario_matrix.py [--quick]``
(CI's scenario-smoke job uses ``--quick``).
"""

from __future__ import annotations

from time import perf_counter

import pytest

from conftest import emit_json, record_scenario, report

from repro.resilience.chaos import PROFILES
from repro.scenarios import MECHANISMS, SCENARIOS, run_scenario

pytestmark = pytest.mark.scenarios

SCENARIO_NAMES = tuple(SCENARIOS)
QUICK_SCENARIO_NAMES = ("default", "hot-key-contention", "bursty-flash-crowd")
PROFILE_NAMES = ("none", *PROFILES)
QUICK_PROFILE_NAMES = ("none", "mixed")
MECHANISM_NAMES = tuple(sorted(MECHANISMS))
SEED = 0


def _legacy_fingerprint() -> dict:
    """The classic single-queue workload fingerprint, built by hand."""
    from repro.dependency import known
    from repro.replication.cluster import build_keyspace
    from repro.replication.keyspace import KeyspaceSpec, ObjectSpec
    from repro.sim.workload import OperationMix, WorkloadGenerator
    from repro.types import Queue

    queue = Queue()
    relation = known.ground(queue, known.QUEUE_STATIC, 5)
    spec = KeyspaceSpec(3, (ObjectSpec("queue", queue, relation=relation),))
    cluster = build_keyspace(spec, seed=SEED)
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        OperationMix.uniform("queue", queue.invocations()),
        ops_per_transaction=3,
        concurrency=4,
    )
    metrics = generator.run(SCENARIOS["default"].transactions)
    return {
        "outcomes": {
            f"{op}/{o}": c for (op, o), c in sorted(metrics.outcomes.items())
        },
        "histories": {
            "queue": str(cluster.tm.object("queue").recorder.to_behavioral_history())
        },
        "messages_sent": cluster.network.messages_sent,
        "commits": metrics.committed_transactions,
        "aborts": metrics.aborted_transactions,
    }


def _measure_cell(scenario: str, mechanism: str, profile: str) -> dict:
    started = perf_counter()
    verdict = run_scenario(
        scenario, seed=SEED, mechanism=mechanism, profile=profile
    )
    seconds = perf_counter() - started
    fp = verdict["fingerprint"]
    return {
        "scenario": scenario,
        "mechanism": mechanism,
        "scheme": verdict["scheme"],
        "profile": profile,
        "transactions": verdict["transactions"],
        "seconds": seconds,
        "ok": verdict["ok"],
        "violations": verdict["violations"],
        "attempted": verdict["counts"]["attempted"],
        "succeeded": verdict["counts"]["succeeded"],
        "degraded": verdict["counts"]["degraded"],
        "unavailable": verdict["counts"]["unavailable"],
        "conflict": verdict["counts"]["conflict"],
        "aborted_ops": verdict["counts"]["aborted_ops"],
        "commits": fp["commits"],
        "aborts": fp["aborts"],
        "messages_sent": fp["messages_sent"],
        "faults_applied": fp["faults_applied"],
        "converged": fp["converged"],
        "audit_ok": fp["audit_ok"],
    }


def _measure(scenarios, profiles) -> dict:
    legacy = _legacy_fingerprint()
    compiled = run_scenario("default", seed=SEED)["fingerprint"]
    rows = [
        _measure_cell(scenario, mechanism, profile)
        for scenario in scenarios
        for mechanism in MECHANISM_NAMES
        for profile in profiles
    ]
    return {
        "seed": SEED,
        "scenarios": list(scenarios),
        "mechanisms": list(MECHANISM_NAMES),
        "profiles": list(profiles),
        "default_matches_legacy": all(
            compiled[key] == value for key, value in legacy.items()
        ),
        "cells": len(rows),
        "violations_total": sum(row["violations"] for row in rows),
        "rows": rows,
    }


def _render(results: dict) -> str:
    lines = [
        f"{'scenario':<19} {'mechanism':<12} {'profile':<9} {'txns':>4} "
        f"{'ok':>4} {'degr':>4} {'conf':>4} {'msgs':>6} {'faults':>6} verdict",
        "-" * 82,
    ]
    for row in results["rows"]:
        lines.append(
            f"{row['scenario']:<19} {row['mechanism']:<12} "
            f"{row['profile']:<9} {row['transactions']:>4} "
            f"{row['succeeded']:>4} {row['degraded']:>4} "
            f"{row['conflict']:>4} {row['messages_sent']:>6} "
            f"{row['faults_applied']:>6} "
            f"{'PASS' if row['ok'] else 'FAIL'}"
        )
    lines.append(
        f"{results['cells']} cells, {results['violations_total']} audit "
        f"violations, default_matches_legacy="
        f"{results['default_matches_legacy']} (seed {results['seed']}, "
        "every cell streaming-audited)"
    )
    return "\n".join(lines)


def _check(results: dict) -> None:
    assert results["default_matches_legacy"], (
        "compiled default scenario diverged from the legacy workload"
    )
    assert results["violations_total"] == 0, results["violations_total"]
    for row in results["rows"]:
        assert row["ok"], row
        assert row["converged"], row
        if row["profile"] != "none":
            assert row["faults_applied"] > 0 or row["transactions"] < 8, row


def test_scenario_matrix():
    record_scenario("matrix")
    results = _measure(SCENARIO_NAMES, PROFILE_NAMES)
    emit_json(
        "scenario_matrix",
        results,
        objects=max(SCENARIOS[name].objects for name in SCENARIO_NAMES),
    )
    report("scenario_matrix", _render(results))
    _check(results)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="use the trimmed CI matrix"
    )
    args = parser.parse_args(argv)
    scenarios = QUICK_SCENARIO_NAMES if args.quick else SCENARIO_NAMES
    profiles = QUICK_PROFILE_NAMES if args.quick else PROFILE_NAMES
    record_scenario("matrix")
    results = _measure(scenarios, profiles)
    emit_json(
        "scenario_matrix",
        results,
        objects=max(SCENARIOS[name].objects for name in scenarios),
    )
    report("scenario_matrix", _render(results))
    _check(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
