"""Auditor overhead: throughput with and without the online auditor.

Three configurations of the same seeded workload:

* ``off``     — NullTracer, no auditor (the production default);
* ``traced``  — a real Tracer recording spans, no auditor;
* ``audited`` — the same Tracer with the :class:`~repro.obs.audit.Auditor`
  attached as a live listener, all eight invariant monitors on.

The auditor's own cost is ``audited`` vs ``traced`` (it rides an
existing tracer; you cannot audit an untraced run); ``audited`` vs
``off`` is the total cost of turning on full correctness observability.
Wall times are best-of-``ROUNDS`` to shed scheduler noise, and they are
reported, not asserted: the budget on observation is ``ops_per_s`` of
the ``audited-chaos`` workload under ``perf/compare.py``, measured in
reference-host seconds.  What this file asserts is counted on one more
audited run of the same workload — the routing that keeps observation
cheap: the auditor is entered for no ``rpc`` span, no monitor's
``on_point_event`` is entered for a name it did not declare, and
``spans_seen`` is still every close the tracer made.

Results land in ``benchmarks/results/BENCH_audit_overhead.json``
(machine-readable) and ``audit_overhead.txt`` (the usual text block).
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

from conftest import emit_json, report

from repro.dependency import known
from repro.obs.audit import Auditor, default_monitors
from repro.obs.trace import Tracer
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.types import Queue

SEED = 0
SITES = 3
TRANSACTIONS = 60
ROUNDS = 5


class _CountingAuditor(Auditor):
    """An auditor that counts what it and its monitors are entered for."""

    def __init__(self, cluster):
        self.entered: Counter = Counter()  # span kind -> on_span_end entries
        self.undeclared: Counter = Counter()  # (monitor, event name) -> entries
        monitors = default_monitors()
        for monitor in monitors:
            monitor.on_point_event = self._counted(monitor)
        super().__init__(cluster, monitors)

    def _counted(self, monitor):
        hook, declared = monitor.on_point_event, monitor.point_events

        def on_point_event(span):
            if declared is not None and span.name not in declared:
                self.undeclared[monitor.name, span.name] += 1
            hook(span)

        return on_point_event

    def on_span_end(self, span):
        self.entered[span.kind] += 1
        super().on_span_end(span)


def _build(mode: str, audit=Auditor):
    """The seeded workload under ``mode``, un-run: (cluster, generator, auditor)."""
    tracer = Tracer() if mode != "off" else None
    queue = Queue()
    relation = known.ground(queue, known.QUEUE_STATIC, 5)
    spec = KeyspaceSpec(SITES, (ObjectSpec("queue", queue, relation=relation),))
    cluster = build_keyspace(spec, seed=SEED, tracer=tracer)
    auditor = audit(cluster) if mode == "audited" else None
    mix = OperationMix.uniform("queue", queue.invocations())
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        mix,
        ops_per_transaction=3,
        concurrency=4,
    )
    return cluster, generator, auditor


def _run_once(mode: str) -> tuple[float, int]:
    """One workload run; returns (wall seconds, operations executed)."""
    _cluster, generator, auditor = _build(mode)
    started = perf_counter()
    metrics = generator.run(TRANSACTIONS)
    elapsed = perf_counter() - started
    if auditor is not None:
        audit = auditor.finish()
        assert audit.ok, audit.render()
    return elapsed, sum(metrics.outcomes.values())


def _count_routing() -> dict:
    """The audited run once more, counting who was entered for what."""
    cluster, generator, auditor = _build("audited", _CountingAuditor)
    metrics = generator.run(TRANSACTIONS)
    audit = auditor.finish()
    assert audit.ok, audit.render()
    closed = Counter(span.kind for span in cluster.tracer.spans)
    return {
        "operations": sum(metrics.outcomes.values()),
        "spans_closed": cluster.tracer.closed,
        "spans_closed_by_kind": dict(closed),
        "spans_seen": audit.spans_seen,
        "auditor_entered_by_kind": dict(auditor.entered),
        "undeclared_point_event_entries": sum(auditor.undeclared.values()),
    }


def _measure_all(modes: tuple[str, ...]) -> dict[str, dict[str, float]]:
    """Best-of-``ROUNDS`` wall time per mode, rounds interleaved.

    Rounds run round-robin across the configurations rather than as one
    block per configuration, so a host slowdown wave degrades every
    configuration's samples from the same time window instead of
    inflating one side of the overhead ratio.
    """
    samples: dict[str, list[float]] = {mode: [] for mode in modes}
    operations: dict[str, int] = {}
    for _ in range(ROUNDS):
        for mode in modes:
            elapsed, operations[mode] = _run_once(mode)
            samples[mode].append(elapsed)
    results = {}
    for mode in modes:
        best = min(samples[mode])
        results[mode] = {
            "wall_seconds_best": best,
            "wall_seconds_all": samples[mode],
            "operations": operations[mode],
            "throughput_ops_per_s": operations[mode] / best,
        }
    return results


def test_audit_overhead_within_budget():
    results = _measure_all(("off", "traced", "audited"))

    def loss(base: str, probe: str) -> float:
        """Throughput loss of ``probe`` relative to ``base``, in percent."""
        return 100.0 * (
            1.0
            - results[probe]["throughput_ops_per_s"]
            / results[base]["throughput_ops_per_s"]
        )

    auditor_loss = loss("traced", "audited")
    total_loss = loss("off", "audited")
    tracer_loss = loss("off", "traced")
    routing = _count_routing()

    payload = {
        "workload": {
            "seed": SEED,
            "sites": SITES,
            "transactions": TRANSACTIONS,
            "rounds": ROUNDS,
        },
        "configurations": results,
        "overhead_pct": {
            "auditor_vs_traced": auditor_loss,
            "tracer_vs_off": tracer_loss,
            "audited_vs_off": total_loss,
        },
        "routing": routing,
    }
    emit_json("audit_overhead", payload)

    lines = [
        f"{'config':<10} {'best wall':>10} {'ops':>6} {'throughput':>12}",
        "-" * 42,
    ]
    for mode, stats in results.items():
        lines.append(
            f"{mode:<10} {stats['wall_seconds_best']:>9.4f}s "
            f"{stats['operations']:>6} "
            f"{stats['throughput_ops_per_s']:>10,.0f}/s"
        )
    lines += [
        "",
        f"auditor overhead (audited vs traced): {auditor_loss:>6.1f}%",
        f"tracer overhead  (traced  vs off):    {tracer_loss:>6.1f}%",
        f"total overhead   (audited vs off):    {total_loss:>6.1f}%",
        "",
        f"spans closed {routing['spans_closed']} "
        f"({routing['spans_closed_by_kind'].get('rpc', 0)} rpc), "
        f"auditor entered for {sum(routing['auditor_entered_by_kind'].values())} "
        f"({routing['auditor_entered_by_kind'].get('rpc', 0)} rpc), "
        f"monitor entries for undeclared point events "
        f"{routing['undeclared_point_event_entries']}",
    ]
    report("audit_overhead", "\n".join(lines))

    # The auditor reads no rpc span, so it is entered for none of them
    # and for every close of the kinds it does read...
    entered, closed = routing["auditor_entered_by_kind"], routing["spans_closed_by_kind"]
    assert closed["rpc"] > 0 and "rpc" not in entered
    assert entered == {kind: closed[kind] for kind in Auditor.span_kinds}
    # ...each monitor only for the point events it declared...
    assert routing["undeclared_point_event_entries"] == 0
    # ...and the report still counts every close the tracer made.
    assert routing["spans_seen"] == routing["spans_closed"] == sum(closed.values())
    # Identical work was done in every configuration.
    assert (
        results["off"]["operations"]
        == results["traced"]["operations"]
        == results["audited"]["operations"]
        == routing["operations"]
    )
