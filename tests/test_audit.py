"""The online correctness auditor: monitors, mutations, forensics.

Two kinds of guarantees are pinned here:

* **no false positives** — clean runs (including crashy/lossy ones)
  audit green across seeds and schemes;
* **no false negatives** — every seeded protocol mutation in
  :mod:`repro.obs.mutations` is flagged, and the flag names the
  invariant that mutation actually breaks (not a bystander).
"""

from __future__ import annotations

import argparse
import hashlib
import json
from types import SimpleNamespace

import pytest

import repro.__main__ as cli
from repro.clocks.timestamps import Timestamp
from repro.histories.events import Invocation, event, ok
from repro.obs.audit import (
    Auditor,
    AuditReport,
    InvariantMonitor,
    LogConsistencyMonitor,
    PartialReplicationMonitor,
    QuorumIntersectionMonitor,
    Violation,
    default_monitors,
)
from repro.obs.mutations import EXPECTED_INVARIANT, MUTATIONS
from repro.obs.trace import Tracer
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import ObjectSpec, demo_keyspace, demo_mix
from repro.replication.log import Log, LogEntry
from repro.sim.failures import CrashInjector
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.txn.ids import ActionId
from repro.types import Queue, Register
from tests.helpers import cluster_of, hybrid_queue

pytestmark = pytest.mark.obs

INVARIANTS = (
    "quorum-intersection",
    "reconfig-epoch",
    "lock-discipline",
    "timestamp-order",
    "log-consistency",
    "history-capture",
    "one-copy-serializability",
    "genuine-partial-replication",
)


def audited_run(
    seed=0,
    sites=3,
    transactions=12,
    scheme="hybrid",
    crashes=False,
    mutate=None,
    monitors=None,
):
    """Run the queue workload under the auditor; returns (report, cluster)."""
    tracer = Tracer()
    if mutate == "shard-misroute":
        # This mutation needs a shard it can misroute: a partially
        # replicated ring keyspace, not the fully replicated queue.
        spec = demo_keyspace(4, max(sites, 5), placement="ring")
        cluster = build_keyspace(spec, seed=seed, tracer=tracer)
        mix = demo_mix(spec)
    else:
        queue = (
            hybrid_queue() if scheme == "hybrid" else ObjectSpec("queue", Queue(), scheme)
        )
        cluster = cluster_of(sites, queue, seed=seed, tracer=tracer)
        mix = OperationMix.uniform("queue", queue.datatype.invocations())
    if crashes:
        CrashInjector(cluster.network, 60.0, 8.0).install()
    auditor = Auditor(cluster, monitors)
    if mutate is not None:
        MUTATIONS[mutate](cluster)
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        mix,
        ops_per_transaction=3,
        concurrency=4,
    )
    generator.run(transactions)
    return auditor.finish(), cluster


class TestCleanRunsAuditGreen:
    def test_default_monitors_cover_all_invariants(self):
        assert tuple(m.name for m in default_monitors()) == INVARIANTS

    def test_clean_run_is_green(self):
        report, _cluster = audited_run()
        assert report.ok, report.render()
        assert report.monitors == INVARIANTS
        assert report.operations > 0
        assert report.transactions > 0
        assert report.violated_invariants == ()
        assert "audit: OK" in report.render()
        assert report.registry.counter("audit.violations").value == 0

    @pytest.mark.parametrize("scheme", ["static", "dynamic"])
    def test_other_schemes_audit_green(self, scheme):
        report, _cluster = audited_run(seed=2, scheme=scheme)
        assert report.ok, report.render()

    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_crashy_runs_stay_green(self, seed):
        report, _cluster = audited_run(
            seed=seed, sites=5, transactions=15, crashes=True
        )
        assert report.ok, report.render()

    def test_captured_history_matches_runtime_recorder(self):
        report, cluster = audited_run()
        assert report.ok
        # finish() already cross-checked this (history-capture monitor);
        # assert the equality directly as well.
        obj = cluster.tm.object("queue")
        # The auditor detached at finish(); rebuild its view via a fresh
        # attach-and-replay is impossible, so compare the recorder the
        # monitor validated against.
        assert obj.recorder.to_behavioral_history().committed


class TestMutationsAreFlagged:
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutation_flags_expected_invariant(self, mutation):
        report, _cluster = audited_run(mutate=mutation)
        assert not report.ok
        assert EXPECTED_INVARIANT[mutation] in report.violated_invariants, (
            report.render()
        )

    def test_violations_carry_forensics(self):
        report, _cluster = audited_run(mutate="quorum-intersection")
        flagged = [
            v
            for v in report.violations
            if v.invariant == "quorum-intersection"
        ]
        assert flagged
        with_spans = [v for v in flagged if v.forensics.spans]
        assert with_spans
        violation = with_spans[0]
        assert violation.span_id is not None
        assert violation.object_name == "queue"
        rendered = violation.render()
        assert "offending span subtree" in rendered
        assert "[quorum-intersection]" in rendered
        # Forensic subtrees are rooted at the offending span.
        assert violation.forensics.spans[0].span_id == violation.span_id

    def test_identical_findings_fold_into_count(self):
        class Repetitive(InvariantMonitor):
            name = "repetitive"

            def on_operation(self, record):
                self.report("the same finding every time")

        report, _cluster = audited_run(monitors=[Repetitive()])
        assert not report.ok
        (violation,) = report.violations
        assert violation.count == report.operations > 1
        assert "(x" in violation.render()
        assert report.suppressed == {}

    def test_violation_marks_land_in_the_trace(self):
        tracer = Tracer()
        cluster = cluster_of(3, hybrid_queue(), seed=0, tracer=tracer)
        auditor = Auditor(cluster)
        MUTATIONS["quorum-intersection"](cluster)
        mix = OperationMix.uniform("queue", Queue().invocations())
        WorkloadGenerator(
            cluster.sim, cluster.tm, cluster.frontends, mix
        ).run(6)
        report = auditor.finish()
        assert not report.ok
        marks = [s for s in tracer.spans if s.name == "audit.violation"]
        assert marks
        assert all(s.kind == "event" and s.finished for s in marks)
        assert {m.attrs["invariant"] for m in marks} >= {"quorum-intersection"}

    def test_report_to_dict_is_json_ready(self):
        report, _cluster = audited_run(mutate="log-divergence")
        payload = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert payload["ok"] is False
        assert "log-consistency" in payload["violated_invariants"]
        assert payload["violations"]
        first = payload["violations"][0]
        assert {"invariant", "message", "forensics", "count"} <= set(first)
        assert payload["metrics"]["counters"]["audit.violations"] > 0


class TestAuditorMechanics:
    def test_rejects_null_tracer(self):
        cluster = cluster_of(3, seed=0)  # untraced by default
        with pytest.raises(ValueError, match="enabled Tracer"):
            Auditor(cluster)

    def test_finish_is_idempotent_and_detaches(self):
        report, cluster = audited_run()
        auditor_spans = report.spans_seen
        # More spans after finish() must not be audited.
        cluster.tracer.event("site.crash", site=0)
        assert report.spans_seen == auditor_spans
        assert cluster.tracer._listeners == []

    def test_distinct_violations_capped_per_invariant(self):
        class Chatty(InvariantMonitor):
            name = "chatty"

            def on_operation(self, record):
                # A distinct message per call defeats dedup, hitting
                # the per-invariant cap instead.
                self.report(f"finding #{record.span.span_id}")

        tracer = Tracer()
        cluster = cluster_of(3, hybrid_queue(), seed=0, tracer=tracer)
        auditor = Auditor(cluster, [Chatty()], max_per_invariant=3)
        mix = OperationMix.uniform("queue", Queue().invocations())
        WorkloadGenerator(
            cluster.sim, cluster.tm, cluster.frontends, mix
        ).run(10)
        report = auditor.finish()
        distinct = [v for v in report.violations if v.invariant == "chatty"]
        assert len(distinct) == 3
        assert report.suppressed["chatty"] > 0
        assert "suppressed" in report.render()
        # Every intake still counted, capped or not.
        assert (
            report.registry.counter("audit.violations").value
            == sum(v.count for v in distinct) + report.suppressed["chatty"]
        )

    def test_custom_monitor_sees_operations_and_transactions(self):
        class Counting(InvariantMonitor):
            name = "counting"

            def __init__(self):
                super().__init__()
                self.operations = 0
                self.ends = 0
                self.ended = False

            def on_operation(self, record):
                assert record.event.inv.op in ("Enq", "Deq")
                assert record.obj.name == "queue"
                self.operations += 1

            def on_transaction_end(self, span, txn):
                assert span.outcome in ("committed", "aborted")
                self.ends += 1

            def at_end(self):
                self.ended = True

        monitor = Counting()
        report, _cluster = audited_run(monitors=[monitor])
        assert report.ok
        assert report.monitors == ("counting",)
        assert monitor.operations == report.operations > 0
        assert monitor.ends == report.transactions > 0
        assert monitor.ended

    def test_report_is_a_frozen_value(self):
        report, _cluster = audited_run(transactions=4)
        assert isinstance(report, AuditReport)
        with pytest.raises(AttributeError):
            report.operations = 0
        assert isinstance(report.violations, tuple)
        for violation in report.violations:
            assert isinstance(violation, Violation)


class TestRouting:
    """Spans go only to who reads them; every reader still sees all it reads."""

    def test_auditor_is_not_entered_for_rpc_spans(self):
        kinds = []

        class Recording(Auditor):
            def on_span_end(self, span):
                kinds.append(span.kind)
                super().on_span_end(span)

        tracer = Tracer()
        queue = Queue()
        cluster = cluster_of(
            3, ObjectSpec("queue", queue, "static"), seed=0, tracer=tracer
        )
        auditor = Recording(cluster)
        mix = OperationMix.uniform("queue", queue.invocations())
        WorkloadGenerator(cluster.sim, cluster.tm, cluster.frontends, mix).run(6)
        report = auditor.finish()
        assert report.ok, report.render()
        emitted = [span.kind for span in tracer.spans]
        assert "rpc" in emitted and "rpc" not in kinds
        assert sorted(kinds) == sorted(k for k in emitted if k in Auditor.span_kinds)
        # spans_seen is the tracer's count, not the auditor's entries.
        assert report.spans_seen == tracer.closed == len(emitted) > len(kinds)

    def test_point_events_reach_undeclared_monitors_all_and_declared_ones_only_theirs(self):
        class Names(InvariantMonitor):
            def __init__(self):
                super().__init__()
                self.names = []

            def on_point_event(self, span):
                self.names.append(span.name)

        class Everything(Names):
            name = "everything"

        class WritesOnly(Names):
            name = "writes-only"
            point_events = frozenset({"repo.write", "never.emitted"})

        everything, writes = Everything(), WritesOnly()
        report, cluster = audited_run(
            crashes=True, transactions=20, monitors=[everything, writes]
        )
        assert report.ok
        events = [s.name for s in cluster.tracer.spans if s.kind == "event"]
        assert everything.names == events
        assert {"repo.read", "repo.write", "sim.run"} <= set(events)
        assert writes.names == [name for name in events if name == "repo.write"]

    def test_interleaved_objects_and_a_switch_report_like_the_flat_scan(self):
        # The quorum monitor keeps observed quorums per object; what it
        # reports, in which order and how often must stay what one
        # store scanned for every quorum reported.
        tracer = Tracer()
        cluster = cluster_of(
            5, hybrid_queue("a"), ObjectSpec("b", Queue(), "static"), seed=0, tracer=tracer
        )
        auditor = Auditor(cluster, [QuorumIntersectionMonitor()])
        for item in (
            ("a", "initial", "Deq", [0, 1, 2]),
            ("b", "initial", "Deq", [0, 1]),  # no quorum of 3-of-5
            ("a", "final", "Enq", [3, 4]),  # nor this; misses a's Deq initial
            ("b", "final", "Enq", [2, 3, 4]),  # misses b's [0, 1]
            ("a", "final", "Deq", [2, 3, 4]),
            ("b", "initial", "Enq", [0, 1]),
            ("a", "initial", "Deq", [0, 1]),  # misses both of a's finals
            ("b", "initial", "Deq", [0, 1]),  # again: counts go up
            "switch a",
            ("a", "initial", "Deq", [0, 1]),  # a's finals went with the switch
            ("b", "initial", "Deq", [0, 1]),  # b's did not
            ("a", "final", "Enq", [3, 4]),
        ):
            if item == "switch a":
                tracer.event("reconfig.switch", object="a", epoch=1)
                continue
            obj, phase, op, members = item
            tracer.end_span(
                tracer.start_span(
                    "quorum", kind="quorum", object=obj, phase=phase, op=op,
                    quorum=members,
                )
            )
        report = auditor.finish()
        no_quorum = " is not a quorum of the declared coterie ThresholdCoterie(3 of 5)"
        tail = " — the intersection relation no longer contains the dependency relation"
        # Produced by the parent commit's flat (object, op)-keyed scan.
        assert [(v.object_name, v.count, v.span_id, v.message) for v in report.violations] == [
            ("b", 5, 2, "initial quorum [0, 1] for Deq" + no_quorum),
            ("a", 2, 4, "final quorum [3, 4] for Enq;Ok" + no_quorum),
            ("a", 1, 4, "final quorum [3, 4] for Enq;Ok is disjoint from "
                        "initial quorum [0, 1, 2] of Deq" + tail),
            ("b", 1, 7, "final quorum [2, 3, 4] for Enq;Ok is disjoint from "
                        "initial quorum [0, 1] of Deq" + tail),
            ("b", 1, 10, "initial quorum [0, 1] for Enq" + no_quorum),
            ("b", 1, 10, "initial quorum [0, 1] for Enq is disjoint from "
                         "final quorum [2, 3, 4] of Enq;Ok" + tail),
            ("a", 1, 13, "initial quorum [0, 1] for Deq is disjoint from "
                         "final quorum [3, 4] of Enq;Ok" + tail),
            ("a", 1, 13, "initial quorum [0, 1] for Deq is disjoint from "
                         "final quorum [2, 3, 4] of Deq;Ok" + tail),
            ("b", 2, 16, "initial quorum [0, 1] for Deq is disjoint from "
                         "final quorum [2, 3, 4] of Enq;Ok" + tail),
            ("a", 1, 21, "final quorum [3, 4] for Enq;Ok is disjoint from "
                         "initial quorum [0, 1] of Deq" + tail),
        ]
        assert report.suppressed == {} and report.spans_seen == 22


#: SHA-256 of ``json.dumps(report.verdict(), sort_keys=True)`` for every
#: ``audit --sweep`` case at seed 3, 40 transactions: (deep, streaming
#: with window 16).  Taken before the monitors learnt to skip settled
#: checks, so a pin that holds means nothing they skip could have fired.
VERDICT_PINS = {
    "clean": ("4b02ec4684a960160e6e96bb2e70415ac55b94153900e92253520f5c5e85d5ce",) * 2,
    "crashes": ("0eca09ea6c87f5606fe390144d161706f099544d9e4259ee5e041ad27df8fc29",) * 2,
    "partitions": ("1c8567f58bdca3e3744d79dedf5c635f8ba600e7a2bcc7e15bfc808e7f5f4e13",) * 2,
    "early-lock-release": ("9bd9b6a26e7ab24361ac23258e23f976db7ec4ebe3a24f3ed7f688354fc388bb",) * 2,
    "log-divergence": ("e77755f44357ba7c672718cb148586f7e5ce1c3802eb63c2bdf4ebe01eba9ae3",) * 2,
    "quorum-intersection": (
        "802ad1a7af07a0e2f41698c4a694008d12f092a1910349d437552c820e76edb5",
        "bf26baa61c88de3952111624b21d2f5e1d436f58fac258152cbc5d0af165cde3",
    ),
    "shard-misroute": ("0b031ff66d504e23e65b7ea43fe7d6c4dbdc86f627ff9b09b6a71934d3af529c",) * 2,
    "stale-assignment": ("9b8c090542825aada5648e805d565e76189d84b6699da3253e0b9fa904a3a0bd",) * 2,
    "timestamp-inversion": (
        "b6f3b9d7653a42238a0804f05f67495914f24a79f2c76d08134ffa8ed39e9de7",
        "763b15591afbe5afbc718738eaed005ba49c528276938132904f5b87d14b825e",
    ),
}


def _audit_args(*argv):
    return cli.build_parser().parse_args(["audit", *argv])


def _counting(monkeypatch, owner, name):
    """Wrap ``owner.name``; returns the list of ``(self, result)`` per entry."""
    entries = []
    original = getattr(owner, name)

    def counted(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        entries.append((self, result))
        return result

    monkeypatch.setattr(owner, name, counted)
    return entries


class TestSettledChecksStaySettled:
    """Monitors skip only what cannot fire: every verdict is pinned, and
    what they skip is counted, not timed."""

    @pytest.mark.parametrize("mode", ["deep", "streaming"])
    def test_sweep_verdicts_are_pinned(self, mode):
        extra = ("--streaming", "--window", "16") if mode == "streaming" else ()
        base = _audit_args("--seed", "3", "--transactions", "40", *extra)
        cases = [("clean", base, None)]
        for flag in ("crashes", "partitions"):
            cases.append((flag, argparse.Namespace(**{**vars(base), flag: True}), None))
        cases += [(name, base, name) for name in sorted(MUTATIONS)]
        digests = {
            label: hashlib.sha256(
                json.dumps(cli._audit_once(args, mutate).verdict(), sort_keys=True).encode()
            ).hexdigest()
            for label, args, mutate in cases
        }
        column = 0 if mode == "deep" else 1
        assert digests == {label: pins[column] for label, pins in VERDICT_PINS.items()}

    def test_full_placement_audit_skips_what_cannot_fire(self, monkeypatch):
        from repro.scenarios import run_scenario

        partial = _counting(monkeypatch, PartialReplicationMonitor, "on_point_event")
        partial += _counting(monkeypatch, PartialReplicationMonitor, "on_quorum")
        remembered = _counting(monkeypatch, QuorumIntersectionMonitor, "_remember")
        opened = _counting(monkeypatch, Tracer, "start_span")
        verdict = run_scenario(
            "write-heavy", seed=0, mechanism="hybrid", profile="mixed", transactions=150
        )
        assert verdict["ok"] and verdict["violations"] == 0
        # Every site holds every object: genuine-partial-replication reads nothing.
        assert partial == []
        # The pairwise loop runs for new (or marked) member sets only.
        checked = [bucket for _monitor, bucket in remembered if bucket is not None]
        assert (len(checked), len(remembered)) == (232, 877)
        # Every span still opens through start_span, exactly once.
        (tracer,) = {owner for owner, _span in opened}
        assert len(opened) == tracer._next_id - 1

    def test_log_consistency_compares_values_past_identity(self):
        # Replicas normally share entry objects; a restarted or installed
        # store holds equal copies, which must not read as a divergence.
        def entry(op):
            return LogEntry(Timestamp(5, 1), event(op, ("a",)), ActionId(1, 1))

        first, copy, forged = entry("Enq"), entry("Enq"), entry("Deq")
        found = []
        auditor = SimpleNamespace(
            repositories=[
                SimpleNamespace(stored_objects=lambda: ("q",), peek_log=lambda _n, e=e: Log([e]))
                for e in (first, copy, forged)
            ],
            report_violation=lambda _invariant, message, **_kw: found.append(message),
        )
        monitor = LogConsistencyMonitor()
        monitor.bind(auditor)
        monitor.at_end()
        assert copy is not first and found == [
            f"replica logs diverge at timestamp {first.ts}: site 2 holds "
            f"{forged.event} for {forged.action}, another replica holds "
            f"{first.event} for {first.action}"
        ]

    def test_partial_placement_keeps_every_route(self, monkeypatch):
        points = _counting(monkeypatch, PartialReplicationMonitor, "on_point_event")
        quorums = _counting(monkeypatch, PartialReplicationMonitor, "on_quorum")
        # The ring keyspace the sweep's shard-misroute case runs on, unmutated.
        args = _audit_args(
            "--seed", "0", "--transactions", "40", "--sites", "5", "--objects", "4",
            "--placement", "ring",
        )
        report = cli._audit_once(args, None)
        assert report.ok, report.render()
        assert len(points) > 0 and len(quorums) > 0


class TestGlobalAtomicityWitness:
    """A cross-object run no serial order explains, which every
    per-object monitor passes (ROADMAP item 3).

    A hybrid queue serializes in commit order, a static register in
    begin order.  B begins after A, writes the register, enqueues 1 and
    commits; then A reads the register's initial ``'0'`` and dequeues
    B's 1.  A;B would dequeue from an empty queue and B;A would read
    ``'b'``, yet each object alone is atomic.  Strict: this flips to a
    pass the day a global monitor flags the run.
    """

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="monitors check one object at a time; no global-atomicity monitor yet",
    )
    def test_deep_auditor_flags_the_cross_object_cycle(self):
        cluster = cluster_of(
            5,
            hybrid_queue("queue"),
            ObjectSpec("register", Register(("a", "b")), "static"),
            seed=0,
            tracer=Tracer(),
        )
        auditor = Auditor(cluster, mode="deep")
        frontend, tm = cluster.frontends[0], cluster.tm
        a, b = tm.begin(0), tm.begin(0)
        frontend.execute(b, "register", Invocation("Write", ("b",)))
        frontend.execute(b, "queue", Invocation("Enq", (1,)))
        tm.commit(b)
        read = frontend.execute(a, "register", Invocation("Read"))
        dequeued = frontend.execute(a, "queue", Invocation("Deq"))
        tm.commit(a)
        report = auditor.finish()
        # The schedule ran as written: both committed, A saw '0' and 1.
        assert (read, dequeued) == (ok("0"), ok(1))
        assert report.monitors == INVARIANTS and report.transactions == 2
        assert not report.ok, "no serial order explains A and B"
