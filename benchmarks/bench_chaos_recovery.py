"""Chaos recovery latency: how fast the resilience layer repairs faults.

Runs the full seeded chaos sweep — every built-in fault profile under
the ``degraded`` retry policy — and reports, per profile:

* operations attempted / succeeded / degraded / unavailable (the paper's
  availability criterion under *composed* faults rather than the static
  coterie probabilities of the availability benchmarks);
* recovery-latency p50/p95 in simulated time, pooled over every
  heal-triggered anti-entropy catch-up the sweep performed;
* the auditor's violation count, asserted to be zero — a chaos sweep
  that loses or corrupts data is a failed benchmark, not a data point.

Results land in ``benchmarks/results/BENCH_chaos_recovery.json`` and
``chaos_recovery.txt``.
"""

from __future__ import annotations

from conftest import emit_json, report

from repro.resilience.chaos import PROFILES, run_chaos_sweep

SEEDS = (0, 1, 2, 3)
TRANSACTIONS = 16
SITES = 5
POLICY = "degraded"


def test_chaos_recovery_latency():
    verdict = run_chaos_sweep(
        seeds=SEEDS,
        profiles=PROFILES,
        policies=(POLICY,),
        transactions=TRANSACTIONS,
        n_sites=SITES,
    )
    assert verdict["ok"], verdict
    rows = {
        profile: policies[POLICY]
        for profile, policies in verdict["profiles"].items()
    }
    for profile, row in rows.items():
        assert row["violations"] == 0, (profile, row)

    payload = {
        "sweep": {
            "seeds": list(SEEDS),
            "transactions": TRANSACTIONS,
            "sites": SITES,
            "policy": POLICY,
        },
        "profiles": {
            profile: {
                "attempted": row["attempted"],
                "succeeded": row["succeeded"],
                "degraded": row["degraded"],
                "unavailable": row["unavailable"],
                "aborted_ops": row["aborted_ops"],
                "faults_applied": row["faults_applied"],
                "recovery_syncs": row["recovery_syncs"],
                "recovery_latency_p50": row["recovery_latency_p50"],
                "recovery_latency_p95": row["recovery_latency_p95"],
                "violations": row["violations"],
            }
            for profile, row in rows.items()
        },
        "ok": verdict["ok"],
    }
    emit_json("chaos_recovery", payload)

    lines = [
        f"{'profile':<10} {'faults':>6} {'att':>5} {'ok':>5} {'degr':>5} "
        f"{'unav':>5} {'syncs':>5} {'rec p50':>8} {'rec p95':>8}",
        "-" * 66,
    ]
    for profile, row in rows.items():
        lines.append(
            f"{profile:<10} {row['faults_applied']:>6} {row['attempted']:>5} "
            f"{row['succeeded']:>5} {row['degraded']:>5} "
            f"{row['unavailable']:>5} {row['recovery_syncs']:>5} "
            f"{row['recovery_latency_p50']:>8.1f} "
            f"{row['recovery_latency_p95']:>8.1f}"
        )
    lines.append(
        f"policy {POLICY!r}, seeds {list(SEEDS)}, zero auditor violations "
        "across the sweep"
    )
    report("chaos_recovery", "\n".join(lines))
