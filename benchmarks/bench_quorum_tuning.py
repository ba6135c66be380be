"""Adaptive quorum tuning: tuned vs static assignments under live mixes.

The paper proves quorum consensus admits a whole *spectrum* of legal
assignments per type (Thms 6/10); which point is cheapest depends on
the operation mix.  This benchmark measures the online tuner
(:mod:`repro.tuning`) against fixed assignments on an 8-object
keyspace — four hybrid FIFO queues and four hybrid PROMs, ring-placed
over 5 sites with replication factor 3 — across three workloads:

* **read-dominant** — PROM reads dominate; queues stay balanced;
* **write-heavy** — enqueue-heavy queues, sparse PROM reads;
* **phase-shifting** — the mix flips mid-run (enqueue-heavy to
  dequeue-heavy), so *no* static assignment can win both phases.

Static competitors are priced honestly: ``default`` is the majority
assignment every object starts with; ``read_opt`` / ``write_opt`` fix
each object at the cost model's winner for the nominal read-dominant /
write-heavy mix.  The tuned run starts from ``default`` and must
discover the mix online; its reconfiguration hand-over messages are
charged against it.

Asserted claims (the phase-shifting scenario):

* tuned messages/commit **strictly below every static**, and at least
  ``DEFAULT_SAVING_FLOOR`` (15%) below ``default``;
* tuned pooled p95 operation latency no worse than ``default``;
* an audited tuned run (all streaming monitors, including
  ``reconfig-epoch``) reports **zero violations** across the switches;
* the tuned phase-shifting run's fingerprint and switch schedule stay
  on their pin (``PINNED_TUNED``), taken where a one-request-at-a-time
  front-end produced the same bytes;
* with the tuner constructed but never driven, the run is
  byte-identical to a plain untuned run — observation is free.

Nothing here shards across processes, so ``--jobs`` cannot perturb
results; the environment stamp records the session's value regardless,
and the ``tuner`` field says which numbers include online
reconfiguration.

Standalone: ``python benchmarks/bench_quorum_tuning.py [--quick]``
(CI's tuning-smoke job uses ``--quick``).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import emit_json, record_tuner, report

from repro.dependency import known
from repro.histories.events import Invocation
from repro.obs.audit import Auditor
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec, PlacementRule
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.tuning import TunerConfig, legal_candidates, score_candidates
from repro.types import PROM, Queue

pytestmark = pytest.mark.tuning

SITES = 5
REPLICATION_FACTOR = 3
QUEUES = 4
PROMS = 4
TRANSACTIONS = 240
QUICK_TRANSACTIONS = 144
OPS_PER_TRANSACTION = 3
CONCURRENCY = 4
P_UP = 0.9

#: Tuned messages/commit must sit at least this fraction below the
#: default (majority) static on the phase-shifting workload.
DEFAULT_SAVING_FLOOR = 0.15

#: Sized for phase detection: the 4-op window rotates fast enough that
#: a mid-run mix flip shows up within ~8 operations per object, and the
#: 10% hysteresis still blocks noise-driven churn on the skewed steady
#: mixes (the switch schedule is identical across run lengths here).
TUNING = TunerConfig(window=4, evaluate_every=2, min_samples=4, hysteresis=0.10)

#: transactions -> SHA-256 of the tuned phase-shifting cell's
#: ``{"fingerprint", "switches"}``.
PINNED_TUNED = {
    TRANSACTIONS: "13ee440319a129062d66e3d5687a62ed20e820a3b79cab8fd9f121c700eb8a68",
    QUICK_TRANSACTIONS: "812358f347356b0e0b601bbcbb0c136c5e3b3080a6fc85fc781f8ca59ad7d8da",
}

QUEUE_NAMES = tuple(f"queue-{i}" for i in range(QUEUES))
PROM_NAMES = tuple(f"prom-{i}" for i in range(PROMS))


def _spec() -> KeyspaceSpec:
    queue, prom = Queue(), PROM()
    prom_relation = known.ground(prom, known.PROM_HYBRID, 5)
    rule = PlacementRule.ring(REPLICATION_FACTOR)
    specs = [
        ObjectSpec(name, queue, scheme="hybrid", placement=rule)
        for name in QUEUE_NAMES
    ] + [
        ObjectSpec(name, prom, scheme="hybrid", placement=rule, relation=prom_relation)
        for name in PROM_NAMES
    ]
    return KeyspaceSpec(SITES, tuple(specs))


def _invocation(datatype, op: str) -> Invocation:
    return next(inv for inv in datatype.invocations() if inv.op == op)


def _mix(enq_weight: float, deq_weight: float, read_weight: float) -> OperationMix:
    """Weighted traffic over every object: queue Enq/Deq plus PROM Read."""
    queue, prom = Queue(), PROM()
    items = [
        (name, _invocation(queue, "Enq"), enq_weight) for name in QUEUE_NAMES
    ]
    items += [
        (name, _invocation(queue, "Deq"), deq_weight) for name in QUEUE_NAMES
    ]
    items += [
        (name, _invocation(prom, "Read"), read_weight) for name in PROM_NAMES
    ]
    return OperationMix.weighted(items)


#: (label, list of (mix, fraction-of-transactions)) per scenario.  The
#: PROMs are sealed during setup, so Read is their live operation; the
#: phase shift flips the queues from enqueue- to dequeue-heavy.
SCENARIOS = {
    "read_dominant": [(_mix(1.0, 3.0, 8.0), 1.0)],
    "write_heavy": [(_mix(8.0, 1.0, 1.0), 1.0)],
    "phase_shifting": [
        (_mix(8.0, 1.0, 4.0), 0.5),
        (_mix(1.0, 8.0, 4.0), 0.5),
    ],
}

#: Nominal per-object mixes pricing the read_opt / write_opt statics.
NOMINAL_WEIGHTS = {
    "read_opt": {
        **{name: {"Enq": 0.25, "Deq": 0.75} for name in QUEUE_NAMES},
        **{name: {"Read": 1.0} for name in PROM_NAMES},
    },
    "write_opt": {
        **{name: {"Enq": 8 / 9, "Deq": 1 / 9} for name in QUEUE_NAMES},
        **{name: {"Read": 1.0} for name in PROM_NAMES},
    },
}


def _build(seed: int = 0, tracer=None):
    return build_keyspace(_spec(), seed=seed, tracer=tracer)


def _seal_proms(cluster) -> None:
    """Seal every PROM: a sealed PROM serves Ok reads, which is the
    steady state the read mixes exercise.  Setup, not measured traffic —
    callers snapshot the message counter afterwards (and in the audited
    run, sealing happens after the auditor binds so the captured history
    is complete)."""
    for name in PROM_NAMES:
        txn = cluster.tm.begin(0)
        cluster.frontends[0].execute(txn, name, _invocation(PROM(), "Seal"))
        cluster.tm.commit(txn)


def _apply_static(cluster, nominal: dict[str, dict[str, float]]) -> None:
    """Fix every object at the cost model's winner for its nominal mix."""
    for name in sorted(nominal):
        obj = cluster.tm.object(name)
        replicas = tuple(cluster.placement.replicas(name))
        candidates = legal_candidates(
            obj.cc.relation, replicas, SITES, obj.datatype.operations()
        )
        scored = score_candidates(candidates, nominal[name], p_up=P_UP)
        _best, assignment = scored[0]
        cluster.reconfigure(name, assignment)


def _run_scenario(cluster, scenario: str, transactions: int, tuner=None):
    """Drive the scenario's phases through one shared metric recorder."""
    from repro.sim.metrics import MetricRecorder

    metrics = MetricRecorder()
    consumed = 0
    for mix, fraction in SCENARIOS[scenario]:
        count = round(transactions * fraction)
        generator = WorkloadGenerator(
            cluster.sim,
            cluster.tm,
            cluster.frontends,
            mix,
            ops_per_transaction=OPS_PER_TRANSACTION,
            concurrency=CONCURRENCY,
            metrics=metrics,
        )
        if tuner is not None:
            offset = consumed
            generator.on_transaction_start = (
                lambda index, _o=offset: tuner.on_transaction_start(index + _o)
            )
        generator.run(count)
        consumed += count
    return metrics


def _pooled_p95(metrics) -> float:
    samples = sorted(
        latency
        for latencies in metrics.latencies.values()
        for latency in latencies
    )
    if not samples:
        return float("nan")
    return samples[min(len(samples) - 1, int(0.95 * (len(samples) - 1)))]


def _fingerprint(cluster, metrics) -> dict:
    """Everything a passive tuner must not move, JSON-shaped."""
    return {
        "outcomes": sorted(
            [op, outcome, count]
            for (op, outcome), count in metrics.outcomes.items()
        ),
        "messages_sent": cluster.network.messages_sent,
        "messages_dropped": cluster.network.messages_dropped,
    }


def _measure_config(
    scenario: str,
    config: str,
    transactions: int,
    *,
    seed: int = 0,
) -> dict:
    """One (scenario, assignment-config) cell of the comparison."""
    cluster = _build(seed=seed)
    _seal_proms(cluster)
    tuner = None
    if config in NOMINAL_WEIGHTS:
        _apply_static(cluster, NOMINAL_WEIGHTS[config])
    elif config == "tuned":
        tuner = cluster.enable_tuning(TUNING)
    # Setup (sealing, static reconfiguration) is not charged; the tuned
    # run's own online reconfigurations, after this point, are.
    setup_messages = cluster.network.messages_sent
    metrics = _run_scenario(cluster, scenario, transactions, tuner=tuner)
    messages = cluster.network.messages_sent - setup_messages
    commits = metrics.committed_transactions
    return {
        "messages": messages,
        "commits": commits,
        "messages_per_commit": messages / commits if commits else float("inf"),
        "p95_latency": _pooled_p95(metrics),
        "commit_rate": metrics.commit_rate(),
        "switches": list(tuner.switches) if tuner is not None else [],
        "fingerprint": _fingerprint(cluster, metrics),
    }


def _measure_determinism(transactions: int, tuned: dict) -> dict:
    """The tuned cell against its pin; a passive tuner against no tuner."""
    pinned = json.dumps(
        {"fingerprint": tuned["fingerprint"], "switches": tuned["switches"]},
        sort_keys=True,
    )
    baseline = _build()
    _seal_proms(baseline)
    base_metrics = _run_scenario(baseline, "phase_shifting", transactions)
    passive = _build()
    _seal_proms(passive)
    passive.enable_tuning(TUNING)  # observer installed, never driven
    passive_metrics = _run_scenario(passive, "phase_shifting", transactions)
    return {
        "tuned_on_pin": (
            hashlib.sha256(pinned.encode()).hexdigest()
            == PINNED_TUNED.get(transactions)
        ),
        "tuner_off_identical": (
            _fingerprint(baseline, base_metrics)
            == _fingerprint(passive, passive_metrics)
        ),
    }


def _measure_audit(transactions: int) -> dict:
    """The tuned phase-shifting run under the full streaming auditor."""
    from repro.obs.trace import Tracer

    tracer = Tracer()
    cluster = _build(tracer=tracer)
    auditor = Auditor(cluster)
    _seal_proms(cluster)  # after binding: the captured history is complete
    tuner = cluster.enable_tuning(TUNING)
    _run_scenario(cluster, "phase_shifting", transactions, tuner=tuner)
    audit = auditor.finish()
    return {
        "ok": audit.ok,
        "violations": len(audit.violations),
        "switches": len(tuner.switches),
        "monitors": list(audit.monitors),
    }


def _measure(transactions: int) -> dict:
    configs = ("default", "read_opt", "write_opt", "tuned")
    scenarios = {
        scenario: {
            config: _measure_config(scenario, config, transactions)
            for config in configs
        }
        for scenario in SCENARIOS
    }
    return {
        "sites": SITES,
        "replication_factor": REPLICATION_FACTOR,
        "objects": QUEUES + PROMS,
        "transactions": transactions,
        "tuning": {
            "window": TUNING.window,
            "evaluate_every": TUNING.evaluate_every,
            "hysteresis": TUNING.hysteresis,
            "min_samples": TUNING.min_samples,
            "p_up": TUNING.p_up,
        },
        "scenarios": scenarios,
        "determinism": _measure_determinism(
            transactions, scenarios["phase_shifting"]["tuned"]
        ),
        "audit": _measure_audit(transactions),
        "default_saving_floor": DEFAULT_SAVING_FLOOR,
    }


def _render(results: dict) -> str:
    lines = [
        f"keyspace: {results['objects']} objects "
        f"({QUEUES} hybrid queues, {PROMS} hybrid PROMs), "
        f"{results['sites']} sites, ring rf={results['replication_factor']}",
        f"{results['transactions']} transactions per scenario, "
        f"{OPS_PER_TRANSACTION} ops each",
    ]
    for scenario, configs in results["scenarios"].items():
        lines.append(f"{scenario}:")
        for config, row in configs.items():
            switched = (
                f", {len(row['switches'])} switches" if row["switches"] else ""
            )
            lines.append(
                f"  {config:<9} {row['messages_per_commit']:>7.2f} msgs/commit  "
                f"p95 {row['p95_latency']:.1f}  "
                f"commit rate {row['commit_rate']:.2f}{switched}"
            )
    shifting = results["scenarios"]["phase_shifting"]
    best_static = min(
        shifting[c]["messages_per_commit"]
        for c in ("default", "read_opt", "write_opt")
    )
    saving = 1 - (
        shifting["tuned"]["messages_per_commit"]
        / shifting["default"]["messages_per_commit"]
    )
    det, audit = results["determinism"], results["audit"]
    lines += [
        f"phase-shifting: tuned {shifting['tuned']['messages_per_commit']:.2f} "
        f"vs best static {best_static:.2f}, "
        f"{saving:.1%} below default (floor {results['default_saving_floor']:.0%})",
        f"tuned run on its pin: {det['tuned_on_pin']} "
        f"({len(shifting['tuned']['switches'])} switches)",
        f"tuner-off byte-identical to baseline: {det['tuner_off_identical']}",
        f"audit: {'OK' if audit['ok'] else 'FAIL'} "
        f"({audit['violations']} violations across {audit['switches']} switches)",
    ]
    return "\n".join(lines)


def _check(results: dict) -> None:
    shifting = results["scenarios"]["phase_shifting"]
    tuned = shifting["tuned"]
    statics = ("default", "read_opt", "write_opt")
    assert tuned["switches"], "the tuner never reconfigured on the shifting mix"
    for config in statics:
        assert (
            tuned["messages_per_commit"] < shifting[config]["messages_per_commit"]
        ), (
            f"tuned {tuned['messages_per_commit']:.2f} msgs/commit does not "
            f"beat static {config} "
            f"({shifting[config]['messages_per_commit']:.2f})"
        )
    saving = 1 - (
        tuned["messages_per_commit"] / shifting["default"]["messages_per_commit"]
    )
    assert saving >= results["default_saving_floor"], (
        f"tuned saving {saving:.1%} below the "
        f"{results['default_saving_floor']:.0%} floor"
    )
    assert tuned["p95_latency"] <= shifting["default"]["p95_latency"], (
        f"tuned p95 {tuned['p95_latency']:.2f} worse than default "
        f"{shifting['default']['p95_latency']:.2f}"
    )
    det = results["determinism"]
    assert det["tuned_on_pin"], "the tuned phase-shifting run left its pin"
    assert det["tuner_off_identical"], (
        "a passive (never-driven) tuner perturbed the workload"
    )
    audit = results["audit"]
    assert audit["switches"], "the audited run never reconfigured"
    assert audit["ok"] and audit["violations"] == 0, (
        f"audited tuned run reported {audit['violations']} violations"
    )
    assert "reconfig-epoch" in audit["monitors"]


def _emit(results: dict) -> None:
    record_tuner(True)
    emit_json(
        "quorum_tuning",
        results,
        objects=results["objects"],
        placement="ring",
    )
    report("quorum_tuning", _render(results))
    _check(results)


def test_quorum_tuning():
    results = _measure(TRANSACTIONS)
    _emit(results)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="use the trimmed CI sizes"
    )
    args = parser.parse_args(argv)
    results = _measure(QUICK_TRANSACTIONS if args.quick else TRANSACTIONS)
    _emit(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
