"""Streaming audit: overhead, bounded retention, and verdict fidelity.

Three questions, one artifact (``BENCH_stream_audit.json``):

* **Overhead** — operations per second for the same workload untraced,
  ring-traced, streaming-audited, and deep-audited, so the cost of
  auditing-at-speed is a measured number rather than a claim;
* **Bounded memory** — a soak run (25k operations under ``--quick``,
  one million otherwise) through :func:`repro.obs.soak.run_soak`,
  asserting peak retained spans never exceeded the ring window while
  compaction + retirement kept the transaction table flat;
* **Fidelity** — the streaming auditor's verdict must byte-match the
  deep auditor's on the tier-1 workload matrix
  (:func:`repro.obs.soak.streaming_matches_deep`), and every seeded
  protocol mutation must still be flagged under a deliberately tiny
  window (16).

Results land in ``benchmarks/results/BENCH_stream_audit.json`` and
``stream_audit.txt``.

Standalone: ``python benchmarks/bench_stream_audit.py [--quick]``
(CI's soak-smoke job uses ``--quick``).
"""

from __future__ import annotations

import argparse
from time import perf_counter

import pytest

from conftest import emit_json, report

from repro.obs.audit import Auditor
from repro.obs.mutations import EXPECTED_INVARIANT, MUTATIONS
from repro.obs.soak import SoakConfig, run_soak, streaming_matches_deep
from repro.obs.trace import NULL_TRACER, Tracer

pytestmark = [pytest.mark.obs, pytest.mark.streaming]

SEED = 0
SITES = 5
OBJECTS = 6
PLACEMENT = "ring"
TRANSACTIONS = 60
QUICK_TRANSACTIONS = 20
SOAK_OPS = 1_000_000
QUICK_SOAK_OPS = 25_000
WINDOW = 512
TINY_WINDOW = 16

EQUIVALENCE_CASES = (
    {"seed": 0, "sites": 3, "transactions": 12},
    {"seed": 1, "sites": 3, "transactions": 12},
    {"seed": 0, "sites": 5, "transactions": 20, "objects": 6,
     "placement": "ring"},
    {"seed": 2, "sites": 5, "transactions": 20, "crashes": True},
)


def _overhead_case(mode: str, transactions: int) -> dict:
    """One workload timed under one observability configuration."""
    from dataclasses import replace

    from repro.scenarios import SCENARIOS, build_scenario

    if mode == "untraced":
        tracer = NULL_TRACER
    elif mode == "ring":
        tracer = Tracer(retention="ring", window=WINDOW)
    else:  # streaming-audit / deep-audit
        tracer = Tracer(retention="ring", window=WINDOW) if (
            mode == "streaming-audit"
        ) else Tracer()
    cluster, generator, _names = build_scenario(
        replace(SCENARIOS["default"], objects=OBJECTS),
        seed=SEED,
        n_sites=SITES,
        placement=PLACEMENT,
        tracer=tracer,
    )
    auditor = None
    if mode == "streaming-audit":
        auditor = Auditor(cluster, mode="streaming", window=WINDOW)
    elif mode == "deep-audit":
        auditor = Auditor(cluster, mode="deep")
    started = perf_counter()
    generator.run(transactions)
    seconds = perf_counter() - started
    operations = sum(generator.metrics.outcomes.values())
    row = {
        "mode": mode,
        "transactions": transactions,
        "operations": operations,
        "seconds": seconds,
        "ops_per_second": operations / seconds if seconds else float("inf"),
        "retained_spans": getattr(tracer, "retained_spans", 0),
        "peak_retained": getattr(tracer, "peak_retained", 0),
    }
    if auditor is not None:
        verdict = auditor.finish()
        assert verdict.ok, verdict.render()
        row["audit_ok"] = verdict.ok
        row["audit_operations"] = verdict.operations
    return row


def _soak_row(ops: int) -> dict:
    result = run_soak(
        SoakConfig(ops=ops, seed=SEED, window=WINDOW, compact_every=25)
    )
    assert result.retained_ok, result.to_dict()
    assert result.report is not None and result.report.ok, result.to_dict()
    return result.to_dict()


def _equivalence_rows() -> list[dict]:
    rows = []
    for case in EQUIVALENCE_CASES:
        outcome = streaming_matches_deep(**case)
        assert outcome["match"], outcome
        rows.append({"case": outcome["case"], "match": outcome["match"]})
    return rows


def _mutation_rows() -> list[dict]:
    """Every seeded mutation must be flagged under a tiny window."""
    rows = []
    for name in sorted(MUTATIONS):
        kwargs: dict = {"mutate": name, "window": TINY_WINDOW}
        if name == "shard-misroute":
            kwargs.update(objects=4, placement="ring", sites=5)
        outcome = streaming_matches_deep(**kwargs)
        expected = EXPECTED_INVARIANT[name]
        flagged = f'"{expected}"' in outcome["streaming"]
        assert flagged, (name, outcome["streaming"])
        rows.append(
            {
                "mutation": name,
                "expected_invariant": expected,
                "flagged": flagged,
                "match": outcome["match"],
            }
        )
    return rows


def _measure(transactions: int, soak_ops: int) -> dict:
    return {
        "seed": SEED,
        "sites": SITES,
        "objects": OBJECTS,
        "placement": PLACEMENT,
        "window": WINDOW,
        "overhead": [
            _overhead_case(mode, transactions)
            for mode in ("untraced", "ring", "streaming-audit", "deep-audit")
        ],
        "soak": _soak_row(soak_ops),
        "equivalence": _equivalence_rows(),
        "mutations": _mutation_rows(),
    }


def _render(results: dict) -> str:
    lines = [
        f"{'mode':<16} {'ops':>6} {'seconds':>8} {'ops/s':>9} "
        f"{'retained':>8} {'peak':>6}",
        "-" * 58,
    ]
    for row in results["overhead"]:
        lines.append(
            f"{row['mode']:<16} {row['operations']:>6} "
            f"{row['seconds']:>8.2f} {row['ops_per_second']:>9.0f} "
            f"{row['retained_spans']:>8} {row['peak_retained']:>6}"
        )
    soak = results["soak"]
    lines.append(
        f"soak: {soak['ops']:,} ops at {soak['ops_per_sec']:,.0f} ops/s — "
        f"peak {soak['peak_retained']} retained spans "
        f"(window {soak['config']['window']}), "
        f"{soak['live_txns']} live txns at end, "
        f"{soak['maintenance']['retired_txns']:,} retired"
    )
    lines.append(
        f"equivalence: {len(results['equivalence'])} tier-1 cases "
        "byte-identical deep vs streaming"
    )
    lines.append(
        f"mutations: {len(results['mutations'])} seeded sabotages flagged "
        f"under window {TINY_WINDOW}"
    )
    return "\n".join(lines)


def _check(results: dict) -> None:
    assert results["soak"]["retained_ok"], results["soak"]
    assert results["soak"]["ok"], results["soak"]
    for row in results["equivalence"]:
        assert row["match"], row
    for row in results["mutations"]:
        assert row["flagged"], row


def test_stream_audit():
    results = _measure(QUICK_TRANSACTIONS, QUICK_SOAK_OPS)
    emit_json(
        "stream_audit",
        results,
        objects=OBJECTS,
        placement=PLACEMENT,
    )
    report("stream_audit", _render(results))
    _check(results)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="25k-op soak instead of 1M"
    )
    args = parser.parse_args(argv)
    transactions = QUICK_TRANSACTIONS if args.quick else TRANSACTIONS
    soak_ops = QUICK_SOAK_OPS if args.quick else SOAK_OPS
    results = _measure(transactions, soak_ops)
    emit_json(
        "stream_audit",
        results,
        objects=OBJECTS,
        placement=PLACEMENT,
    )
    report("stream_audit", _render(results))
    _check(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
