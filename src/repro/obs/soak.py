"""Bounded-memory soak runs: millions of audited operations, O(window) state.

The tracer's ring retention and the auditor's streaming monitors bound
*observability* memory, but a long run leaks through the *system's* own
bookkeeping too: replica logs, snapshot coverage sets, the transaction
table, committed-group history, and the per-object execution recorders
all grow with every transaction.  :class:`SoakMaintenance` closes each
of those leaks with the administrative machinery the replication layer
already exposes, on a fixed cadence at transaction boundaries:

1. **Compact** every commit-order object whose replicas are all up
   (:func:`~repro.replication.snapshot.compact`, restricted to the
   object's replica set so genuine partial replication is preserved);
2. **Prune** the resulting snapshot's coverage bookkeeping
   (:meth:`~repro.replication.snapshot.Snapshot.prune`) and install the
   pruned snapshot on every replica via the administrative
   :meth:`~repro.replication.repository.Repository.replace_snapshot`;
3. **Trim** the object's committed-group history up to the snapshot
   boundary (:meth:`~repro.replication.object.SynchronizationState.trim_committed`);
4. **Retire** finalized transactions whose every touched object was
   swept this round (:meth:`~repro.txn.manager.TransactionManager.retire`),
   after dropping their rows from each touched object's
   :class:`~repro.replication.object.HistoryRecorder`;
5. **Trim** each object's legality-oracle replay memo once it exceeds a
   node threshold (:meth:`~repro.spec.legality.LegalityOracle.trim_cache`).
   The memo is append-only: every distinct view prefix and every
   compacted base state allocates trie nodes for ever-fresh histories
   that will never be replayed again, which is exactly the wrong trade
   for an endurance run.  Dropping it is pure cache eviction — queries
   rebuild what they need.

The workload itself must also hold state bounded: a uniform mix over a
queue's alphabet (two ``Enq`` variants, one ``Deq``) enqueues twice as
often as it dequeues, so per-object state — and with it every snapshot,
view, and replay frontier — grows linearly forever.  :func:`soak_mix`
up-weights consumers so the queue length is a random walk with negative
drift, keeping expected state O(1).

Retirement soundness: a finalized transaction's log entries were written
to full final quorums, so a sweep that drains a transversal of every
final coterie observes them all and folds (or discards) them; once every
touched object has been swept after the transaction finalized, nothing
in the system can name it again.  The sweep therefore only runs when
every replica of the object is reachable — a down site just defers that
object's maintenance to a later round.

:func:`run_soak` drives the whole experiment: an all-hybrid sharded
keyspace (:func:`~repro.replication.keyspace.soak_keyspace`), a
ring-retention tracer, the streaming auditor, and the maintenance loop,
returning a :class:`SoakResult` whose ``retained_ok`` asserts the
tentpole claim — peak retained spans never exceeded the window.

:func:`streaming_matches_deep` is the equivalence half of the story: it
attaches a deep and a streaming auditor to the *same* tracer over one
tier-1 workload and byte-compares their verdicts on the streaming
invariant set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro.errors import SpecificationError, UnavailableError
from repro.obs.audit import (
    DEFAULT_STREAM_WINDOW,
    STREAMING_INVARIANTS,
    AuditReport,
    Auditor,
)
from repro.obs.trace import NULL_TRACER, Tracer

__all__ = [
    "SoakConfig",
    "SoakMaintenance",
    "SoakResult",
    "run_soak",
    "soak_mix",
    "streaming_matches_deep",
]


def soak_mix(spec, *, drain: float = 1.5):
    """A drain-biased :class:`~repro.sim.workload.OperationMix` over ``spec``.

    Producer invocations (those carrying arguments — they add state)
    keep weight 1.0 each; consumer invocations (argument-free — they
    remove or observe state) split ``drain ×`` the total producer weight
    between them, so consumption outpaces production and per-object
    state stays bounded in expectation.  Objects whose alphabet is all
    producers or all consumers fall back to uniform weights.
    """
    from repro.sim.workload import OperationMix

    entries: list[tuple[str, Any, float]] = []
    for obj in spec.objects:
        invocations = list(obj.datatype.invocations())
        producers = [inv for inv in invocations if inv.args]
        consumers = [inv for inv in invocations if not inv.args]
        if not producers or not consumers:
            entries.extend((obj.name, inv, 1.0) for inv in invocations)
            continue
        consumer_weight = drain * len(producers) / len(consumers)
        entries.extend((obj.name, inv, 1.0) for inv in producers)
        entries.extend((obj.name, inv, consumer_weight) for inv in consumers)
    return OperationMix.weighted(entries)


@dataclass(frozen=True)
class SoakConfig:
    """Shape of one bounded-memory soak run.  Deterministic per seed."""

    #: Target executed operations (every recorded outcome counts: ok,
    #: degraded, conflict, unavailable, aborted — each was an audited
    #: operation attempt).
    ops: int = 1_000_000
    seed: int = 0
    sites: int = 5
    objects: int = 8
    replication_factor: int = 3
    #: Tracer ring size *and* streaming-monitor window.
    window: int = 512
    #: Run a maintenance round every this many started transactions.
    compact_every: int = 25
    #: Attach the streaming auditor (off = raw throughput baseline,
    #: untraced).
    audit: bool = True
    ops_per_transaction: int = 3
    concurrency: int = 4

    def __post_init__(self) -> None:
        if self.ops < 1:
            raise SpecificationError("a soak needs at least one operation")
        if self.window < 1:
            raise SpecificationError("the soak window must be positive")
        if self.compact_every < 1:
            raise SpecificationError("compact_every must be positive")

    def to_dict(self) -> dict[str, Any]:
        return {
            "ops": self.ops,
            "seed": self.seed,
            "sites": self.sites,
            "objects": self.objects,
            "replication_factor": self.replication_factor,
            "window": self.window,
            "compact_every": self.compact_every,
            "audit": self.audit,
            "ops_per_transaction": self.ops_per_transaction,
            "concurrency": self.concurrency,
        }


class SoakMaintenance:
    """Periodic compaction + retirement keeping system bookkeeping bounded."""

    def __init__(self, cluster, *, every: int = 25, oracle_cache_limit: int = 2048):
        self.cluster = cluster
        self.every = every
        self.oracle_cache_limit = oracle_cache_limit
        self._countdown = every
        self.rounds = 0
        self.compactions = 0
        self.pruned_actions = 0
        self.retired_txns = 0
        self.trimmed_groups = 0
        self.recorder_rows_dropped = 0
        self.skipped_objects = 0
        self.oracle_trims = 0

    # The WorkloadGenerator hook: fires just before each *new*
    # transaction begins, i.e. at a boundary where no operation is
    # mid-flight (pool transactions are between operations).
    def hook(self, _index: int) -> None:
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self.every
        self.run_round()

    def run_round(self) -> None:
        """One full sweep: compact, prune, trim, then retire."""
        from repro.replication.snapshot import compact
        from repro.sim.network import Timeout

        tm = self.cluster.tm
        network = self.cluster.network
        repositories = self.cluster.repositories
        self.rounds += 1
        swept: set[str] = set()
        for name, obj in tm.objects.items():
            if obj.cc.serialization_order != "commit":
                continue  # static atomicity cannot compact (see snapshot.py)
            replicas = self.cluster.placement.replicas(name)
            if not all(network.is_up(site) for site in replicas):
                self.skipped_objects += 1
                continue
            try:
                snapshot = compact(
                    network,
                    repositories,
                    obj,
                    tm,
                    coordinator_site=replicas[0],
                    sites=replicas,
                )
            except (UnavailableError, Timeout):
                self.skipped_objects += 1
                continue
            if snapshot is not None:
                self.compactions += 1
                pruned = snapshot.prune()
                if pruned is not snapshot:
                    self.pruned_actions += pruned.retired
                    for site in replicas:
                        repositories[site].replace_snapshot(name, pruned)
                if snapshot.last_commit_ts is not None:
                    self.trimmed_groups += obj.sync.trim_committed(
                        snapshot.last_commit_ts
                    )
            # ``None`` still counts as swept: the transversal was
            # drained and held no unfolded finalized entries.
            swept.add(name)
        self._retire(swept)
        self._trim_oracles()

    def _trim_oracles(self) -> None:
        """Evict replay memos past the node limit (local, no network)."""
        seen: set[int] = set()
        for obj in self.cluster.tm.objects.values():
            oracle = obj.oracle
            if id(oracle) in seen:
                continue
            seen.add(id(oracle))
            if oracle.cache_nodes() > self.oracle_cache_limit:
                oracle.trim_cache()
                self.oracle_trims += 1

    def _retire(self, swept: set[str]) -> None:
        """Forget finalized transactions fully covered by this sweep."""
        if not swept:
            return
        tm = self.cluster.tm
        retirable = [
            txn
            for txn in tm.transactions()
            if not txn.is_active and set(txn.touched) <= swept
        ]
        if not retirable:
            return
        by_object: dict[str, set] = {}
        for txn in retirable:
            for name in txn.touched:
                by_object.setdefault(name, set()).add(txn.id)
        for name, actions in by_object.items():
            self.recorder_rows_dropped += tm.object(name).recorder.forget(
                actions
            )
        self.retired_txns += tm.retire([txn.id for txn in retirable])

    def to_dict(self) -> dict[str, Any]:
        return {
            "rounds": self.rounds,
            "compactions": self.compactions,
            "pruned_actions": self.pruned_actions,
            "retired_txns": self.retired_txns,
            "trimmed_groups": self.trimmed_groups,
            "recorder_rows_dropped": self.recorder_rows_dropped,
            "skipped_objects": self.skipped_objects,
            "oracle_trims": self.oracle_trims,
        }


@dataclass
class SoakResult:
    """Everything a soak run proved, machine-readable."""

    config: SoakConfig
    ops: int = 0
    transactions: int = 0
    commits: int = 0
    aborts: int = 0
    elapsed: float = 0.0
    sim_time: float = 0.0
    retention: str = "ring"
    retained_spans: int = 0
    peak_retained: int = 0
    retained_ok: bool = True
    #: High-water mark of the streaming auditor's own state cells
    #: (monitor windows + recent-event ring + open-transaction labels).
    audit_cells_peak: int = 0
    #: Live transaction-table size at the end (bounded by retirement).
    live_txns: int = 0
    maintenance: dict[str, Any] = field(default_factory=dict)
    report: AuditReport | None = None

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def ok(self) -> bool:
        return (
            self.ops >= self.config.ops
            and self.retained_ok
            and (self.report is None or self.report.ok)
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "ops": self.ops,
            "transactions": self.transactions,
            "commits": self.commits,
            "aborts": self.aborts,
            "elapsed": round(self.elapsed, 3),
            "ops_per_sec": round(self.ops_per_sec, 1),
            "sim_time": round(self.sim_time, 1),
            "retention": self.retention,
            "retained_spans": self.retained_spans,
            "peak_retained": self.peak_retained,
            "retained_ok": self.retained_ok,
            "audit_cells_peak": self.audit_cells_peak,
            "live_txns": self.live_txns,
            "maintenance": dict(self.maintenance),
            "audit": None if self.report is None else self.report.to_dict(),
            "ok": self.ok,
        }

    def render(self) -> str:
        lines = [
            f"soak: {self.ops:,} operations / {self.transactions:,} "
            f"transactions in {self.elapsed:.1f}s wall "
            f"({self.ops_per_sec:,.0f} ops/s, seed {self.config.seed})",
            f"  keyspace: {self.config.objects} hybrid queues over "
            f"{self.config.sites} sites (rf {self.config.replication_factor})",
            f"  retention: {self.retention}(window={self.config.window}) — "
            f"peak {self.peak_retained} retained spans "
            f"[{'OK' if self.retained_ok else 'EXCEEDED'}]",
            f"  audit state peak: {self.audit_cells_peak} cells; "
            f"live transactions at end: {self.live_txns}",
        ]
        m = self.maintenance
        if m:
            lines.append(
                f"  maintenance: {m.get('rounds', 0)} rounds, "
                f"{m.get('compactions', 0)} compactions, "
                f"{m.get('pruned_actions', 0)} actions pruned, "
                f"{m.get('retired_txns', 0)} transactions retired"
            )
        if self.report is not None:
            lines.append(
                "  audit: "
                + (
                    "no violations"
                    if self.report.ok
                    else "VIOLATIONS: "
                    + ", ".join(self.report.violated_invariants)
                )
            )
        lines.append("verdict: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def run_soak(config: SoakConfig) -> SoakResult:
    """Execute one bounded-memory soak run to completion."""
    from repro.replication.cluster import build_keyspace
    from repro.replication.keyspace import soak_keyspace
    from repro.sim.workload import WorkloadGenerator

    spec = soak_keyspace(
        config.objects,
        config.sites,
        replication_factor=config.replication_factor,
    )
    if config.audit:
        tracer: Tracer = Tracer(retention="ring", window=config.window)
    else:
        tracer = NULL_TRACER
    cluster = build_keyspace(spec, seed=config.seed, tracer=tracer)
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        soak_mix(spec),
        ops_per_transaction=config.ops_per_transaction,
        concurrency=config.concurrency,
    )
    maintenance = SoakMaintenance(cluster, every=config.compact_every)
    generator.on_transaction_start = maintenance.hook
    auditor = (
        Auditor(cluster, mode="streaming", window=config.window)
        if config.audit
        else None
    )

    result = SoakResult(
        config=config, retention="ring" if config.audit else "none"
    )
    wall_start = perf_counter()
    audit_cells_peak = 0
    started = 0
    while result.ops < config.ops:
        remaining = config.ops - result.ops
        batch = max(32, min(2000, remaining // config.ops_per_transaction + 1))
        generator.run(batch)
        started += batch
        result.ops = sum(generator.metrics.outcomes.values())
        if auditor is not None:
            cells = sum(auditor.retained_state().values())
            audit_cells_peak = max(audit_cells_peak, cells)
    result.elapsed = perf_counter() - wall_start
    result.transactions = started
    result.commits = cluster.tm.commits
    result.aborts = cluster.tm.aborts
    result.sim_time = cluster.sim.now
    result.retained_spans = getattr(tracer, "retained_spans", 0)
    result.peak_retained = getattr(tracer, "peak_retained", 0)
    result.retained_ok = (
        not config.audit or result.peak_retained <= config.window
    )
    result.audit_cells_peak = audit_cells_peak
    result.live_txns = len(list(cluster.tm.transactions()))
    result.maintenance = maintenance.to_dict()
    if auditor is not None:
        result.report = auditor.finish()
    return result


def streaming_matches_deep(
    *,
    seed: int = 0,
    sites: int = 3,
    transactions: int = 12,
    objects: int = 1,
    placement: str = "all",
    window: int = DEFAULT_STREAM_WINDOW,
    crashes: bool = False,
    mutate: str | None = None,
) -> dict[str, Any]:
    """One workload, two auditors, byte-compared verdicts.

    Builds the standard workload
    (:func:`~repro.scenarios.runner.build_workload`), attaches a
    deep auditor *and* a streaming auditor to the same tracer, runs it
    once, and compares ``json.dumps(report.verdict(STREAMING_INVARIANTS),
    sort_keys=True)`` byte for byte.  With ``mutate`` the seeded
    protocol sabotage is applied after both auditors have pinned the
    declared configuration, so both must flag it identically.
    """
    from repro.scenarios import build_workload

    cluster, generator = build_workload(
        seed=seed,
        sites=sites,
        objects=objects,
        placement=placement,
        crashes=crashes,
        tracer=Tracer(),
    )
    deep = Auditor(cluster, mode="deep")
    streaming = Auditor(cluster, mode="streaming", window=window)
    if mutate is not None:
        from repro.obs.mutations import MUTATIONS

        MUTATIONS[mutate](cluster)
    generator.run(transactions)
    deep_verdict = json.dumps(
        deep.finish().verdict(STREAMING_INVARIANTS), sort_keys=True
    )
    streaming_verdict = json.dumps(
        streaming.finish().verdict(STREAMING_INVARIANTS), sort_keys=True
    )
    return {
        "case": {
            "seed": seed,
            "sites": sites,
            "transactions": transactions,
            "objects": objects,
            "placement": placement,
            "window": window,
            "crashes": crashes,
            "mutate": mutate,
        },
        "match": deep_verdict == streaming_verdict,
        "deep": deep_verdict,
        "streaming": streaming_verdict,
    }
