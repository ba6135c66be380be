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
from collections import Counter
from types import SimpleNamespace

import pytest

import repro.__main__ as cli
from repro.clocks.timestamps import Timestamp
from repro.errors import UnavailableError
from repro.histories.events import Invocation, event
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
from repro.quorum.coterie import ThresholdCoterie
from repro.replication.antientropy import AntiEntropy
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import ObjectSpec, demo_keyspace
from repro.replication.log import Log, LogEntry
from repro.scenarios import SCENARIOS, compile_mix
from repro.sim.failures import CrashInjector
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.txn.ids import ActionId
from repro.types import Queue
from tests.helpers import audit_verdict, cluster_of, hybrid_queue

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
        mix = compile_mix(spec.objects, SCENARIOS["default"], seed)
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

    def test_auditor_is_entered_for_its_kinds_only(self):
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
        tracer.end_span(tracer.start_span("foreign"))  # kind "span": nobody reads it
        mix = OperationMix.uniform("queue", queue.invocations())
        WorkloadGenerator(cluster.sim, cluster.tm, cluster.frontends, mix).run(6)
        report = auditor.finish()
        assert report.ok, report.render()
        emitted = [span.kind for span in tracer.spans]
        assert "span" in emitted and "span" not in kinds
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

        class CrashesOnly(Names):
            name = "crashes-only"
            point_events = frozenset({"site.crash", "never.emitted"})

        everything, crashes = Everything(), CrashesOnly()
        report, cluster = audited_run(
            crashes=True, transactions=20, monitors=[everything, crashes]
        )
        assert report.ok
        events = [s.name for s in cluster.tracer.spans if s.kind == "event"]
        assert everything.names == events
        assert {"site.crash", "site.recover", "sim.run"} <= set(events)
        assert crashes.names == [name for name in events if name == "site.crash"]

    def test_steps_reach_undeclared_monitors_all_and_declared_ones_only_theirs(self):
        class Steps(InvariantMonitor):
            def __init__(self):
                super().__init__()
                self.names = []

            def on_step(self, span):
                self.names.append(span.name)

        class EveryStep(Steps):
            name = "every-step"

        class FinalsOnly(Steps):
            name = "finals-only"
            step_names = frozenset({"quorum.final", "never.emitted"})

        every, finals = EveryStep(), FinalsOnly()
        report, cluster = audited_run(
            crashes=True, transactions=20, monitors=[every, finals]
        )
        assert report.ok
        steps = [s.name for s in cluster.tracer.spans if s.kind == "quorum"]
        assert every.names == steps
        assert {"quorum.initial", "quorum.final"} == set(steps)
        assert finals.names == [name for name in steps if name == "quorum.final"]

    def test_interleaved_objects_and_a_switch_report_like_the_flat_scan(self):
        # The quorum monitor keeps observed quorums per object; what it
        # reports, in which order and how often must stay what one
        # store scanned for every quorum reported.
        tracer = Tracer()
        cluster = cluster_of(
            5, hybrid_queue("a"), ObjectSpec("b", Queue(), "dynamic"), seed=0, tracer=tracer
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


#: SHA-256 of ``json.dumps(audit_verdict(report), sort_keys=True)`` for every
#: ``audit --sweep`` case at seed 3, 40 transactions: (deep, streaming
#: with window 16).  Taken before the monitors learnt to skip settled
#: checks, so a pin that holds means nothing they skip could have fired.
#: ``shard-misroute`` (the one ring-keyspace case) was re-taken when
#: every object of that keyspace became hybrid; it flags only
#: ``genuine-partial-replication``, as before.  Every row was re-taken
#: when steps replaced per-probe records: ``spans_seen`` fell, the
#: ``log-consistency`` and ``genuine-partial-replication`` times moved
#: to their step's close, and in ``log-divergence`` site 0's forged
#: entry is caught at the close of the step it rode in on, ahead of site
#: 2's; every message, object and count held.  ``quorum-intersection``
#: and ``stale-assignment`` were re-taken when the monitor stopped
#: requiring pairs outside the object's relation merely because the
#: declared assignment made them meet: both are still flagged by
#: ``quorum-intersection`` alone, minus the reports on ``Enq ≥ Enq;Ok``,
#: a pair the hybrid queue's relation does not hold (``stale-assignment``
#: 14 → 12 violations).  The parent commit with only that requirement
#: removed gives the same digests.  ``stale-assignment`` was re-taken
#: again when reconfiguration's drain and prime became quorum rounds over
#: ``Network.gather`` (two latencies per wave, not per site): the same
#: violations, each reported 2.0 earlier.
VERDICT_PINS = {
    "clean": ("9c90964e00601af469c97aad0b016e0c3f18f492a9dbc602c8eb947393887eb2",) * 2,
    "crashes": ("3b9ad8cd3b5d93c3bcc227e443acc24d37fbde050cd3190c2f349d0b7a0dd1dc",) * 2,
    "partitions": ("18672934a94f9248015098e76dc8457d7bf47ce613ec53be61963a4ac4311482",) * 2,
    "early-lock-release": ("7979380e4792f2a0355ee1d92068b36bda2d9a2f274a5940d73aff4577441424",) * 2,
    "log-divergence": ("7cc9c9af1f806192f79a6fabf9d0faf51718cc4a302be00f00ba00f83c7798fc",) * 2,
    "quorum-intersection": (
        "1ec673b776fe995b48b5ffaf8d6698af4d7479c059a32cce4b9ca114386da0a9",
        "b325d97170aaf26a85c91d7b9253ec73031c919cf2058cefb7ad89ed4eb4004b",
    ),
    "shard-misroute": ("fe591a15e989f057ca3f4e1a3f1980128c5979659570bbf08298e39b24edbc0a",) * 2,
    "stale-assignment": ("335480c4b51bcddb71a74ba075ea3743445ef232f5eab6ed93009e735f58be7a",) * 2,
    "timestamp-inversion": (
        "e421810942e29a0100f99eea7e777a06ec6646240dafa2f5c87cb1570de69e57",
        "d54dabf7377dc32be3e87811e56d1dbb05b3bc1156c4d2fb5fca8842e9f7d84a",
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
                json.dumps(audit_verdict(cli._audit_once(args, mutate)), sort_keys=True).encode()
            ).hexdigest()
            for label, args, mutate in cases
        }
        column = 0 if mode == "deep" else 1
        assert digests == {label: pins[column] for label, pins in VERDICT_PINS.items()}

    def test_full_placement_audit_skips_what_cannot_fire(self, monkeypatch):
        from repro.scenarios import run_scenario

        partial = _counting(monkeypatch, PartialReplicationMonitor, "on_step")
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
        assert (len(checked), len(remembered)) == (220, 870)
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
        steps = _counting(monkeypatch, PartialReplicationMonitor, "on_step")
        quorums = _counting(monkeypatch, PartialReplicationMonitor, "on_quorum")
        # The ring keyspace the sweep's shard-misroute case runs on, unmutated.
        args = _audit_args(
            "--seed", "0", "--transactions", "40", "--sites", "5", "--objects", "4",
            "--placement", "ring",
        )
        report = cli._audit_once(args, None)
        assert report.ok, report.render()
        assert len(steps) > 0 and len(quorums) > 0


class TestStepScans:
    """The repository-reading monitors read a step's ``served`` sites at its
    close: a lost reply, an unavailable quorum or an anti-entropy peer
    hides nothing until the end-of-run sweep."""

    TS, ACTION = Timestamp(5, 1), ActionId(1, 1)

    def _queue_cluster(self):
        tracer = Tracer()
        cluster = cluster_of(3, hybrid_queue(), seed=0, tracer=tracer)
        auditor = Auditor(cluster, [LogConsistencyMonitor()])
        honest = LogEntry(self.TS, event("Enq", ("a",)), self.ACTION)
        forged = LogEntry(self.TS, event("Enq", ("b",)), self.ACTION)
        # Site 0 holds the honest entry, scanned when its final quorum closes.
        frontend, obj = cluster.frontends[0], cluster.tm.object("queue")
        frontend._write_quorum(obj, ThresholdCoterie(3, 1), Log([honest]), honest.event)
        return cluster, auditor, forged

    @staticmethod
    def _flagged_at(report, site):
        """The span ids that flagged ``site`` (``None``: the final sweep)."""
        return [
            v.span_id for v in report.violations if f": site {site} holds" in v.message
        ]

    def test_a_divergence_behind_a_lost_reply_is_flagged_at_the_final_close(self):
        cluster, auditor, forged = self._queue_cluster()
        frontend, obj = cluster.frontends[0], cluster.tm.object("queue")
        # The forged write arrives everywhere at +1; site 2 crashes before
        # its reply leg leaves, so its ack never lands.
        cluster.sim.schedule(1.5, lambda: cluster.network.crash(2))
        with pytest.raises(UnavailableError):
            frontend._write_quorum(
                obj, ThresholdCoterie(3, 3), Log([forged]), forged.event
            )
        step = [s for s in cluster.tracer.spans if s.name == "quorum.final"][-1]
        assert step.outcome == "unavailable"
        assert (step.attrs["served"], step.attrs["responders"]) == ([0, 1, 2], [0, 1])
        report = auditor.finish()
        assert self._flagged_at(report, 2) == [step.span_id]

    def test_a_divergence_an_exchange_writes_to_the_peer_is_flagged_at_its_close(self):
        cluster, auditor, forged = self._queue_cluster()
        cluster.repositories[1].write_log("queue", Log([forged]))  # no step: unscanned
        assert AntiEntropy(cluster.network, cluster.repositories).synchronize(1, 2)
        (step,) = [s for s in cluster.tracer.spans if s.name == "antientropy.sync"]
        assert (step.kind, step.attrs["served"], step.attrs["objects"]) == (
            "sync", [1, 2], ["queue"]
        )
        report = auditor.finish()
        assert self._flagged_at(report, 2) == [step.span_id]

    def test_a_non_holder_served_inside_an_unavailable_quorum_is_flagged(self):
        tracer = Tracer()
        spec = demo_keyspace(4, 5, placement="ring")
        cluster = build_keyspace(spec, seed=0, tracer=tracer)
        auditor = Auditor(cluster, [PartialReplicationMonitor()])
        name = "queue-0"
        holders = cluster.placement.replicas(name)
        stray = min(set(range(5)) - set(holders))
        MUTATIONS["shard-misroute"](cluster)  # the stray site is visited first
        for site in holders:
            cluster.network.crash(site)
        txn = cluster.tm.begin(site=stray)
        with pytest.raises(UnavailableError):
            cluster.frontends[stray].execute(txn, name, Invocation("Deq", ()))
        step = [s for s in tracer.spans if s.kind == "quorum"][-1]
        assert (step.name, step.outcome, step.attrs["served"]) == (
            "quorum.initial", "unavailable", [stray]
        )
        report = auditor.finish()
        assert [(v.invariant, v.span_id) for v in report.violations] == [
            ("genuine-partial-replication", step.span_id)
        ]
        assert report.violations[0].message.startswith(
            f"site {stray} served a read of {name!r}"
        )


class _CountingAuditor(Auditor):
    """An auditor that counts what it and its monitors are entered for."""

    def __init__(self, cluster):
        self.entered: Counter = Counter()  # span kind -> on_span_end entries
        self.undeclared: Counter = Counter()  # (monitor, name) -> entries
        monitors = default_monitors()
        for monitor in monitors:
            monitor.on_point_event = self._counted(monitor, "on_point_event", "point_events")
            monitor.on_step = self._counted(monitor, "on_step", "step_names")
        super().__init__(cluster, monitors)

    def _counted(self, monitor, hook_name, declaration):
        hook = getattr(monitor, hook_name)

        def counted(span):
            # Read at entry: bind may have narrowed the declaration.
            declared = getattr(monitor, declaration)
            if declared is not None and span.name not in declared:
                self.undeclared[monitor.name, span.name] += 1
            hook(span)

        return counted

    def on_span_end(self, span):
        self.entered[span.kind] += 1
        super().on_span_end(span)


class TestObservationCost:
    """What observation costs on a 3-site Queue run (seed 0, 60
    transactions of 3 operations, 4 in flight), counted, not timed:
    wall-clock cost is ``ops_per_s`` of the ``audited-chaos`` benchmark."""

    #: Closes per operation.  Measured: 717 closes over 256 operations,
    #: 2.80 each (one operation span, its quorum phases, a third of a
    #: transaction span); the bound leaves a 7 % margin and stays below
    #: the 1 + 2 + 1/3 structural ceiling.  A span per probe read 9.07.
    CLOSES_PER_OPERATION = 3.0

    @staticmethod
    def _run(mode, audit=Auditor):
        """Returns (operations, tracer or None, report or None, auditor or None)."""
        tracer = Tracer() if mode != "off" else None
        queue = Queue()
        cluster = cluster_of(3, ObjectSpec("queue", queue), seed=0, tracer=tracer)
        auditor = audit(cluster) if mode == "audited" else None
        mix = OperationMix.uniform("queue", queue.invocations())
        metrics = WorkloadGenerator(
            cluster.sim, cluster.tm, cluster.frontends, mix,
            ops_per_transaction=3, concurrency=4,
        ).run(60)
        report = auditor.finish() if auditor is not None else None
        return sum(metrics.outcomes.values()), tracer, report, auditor

    @pytest.fixture(scope="class")
    def counted(self):
        return self._run("audited", _CountingAuditor)

    def test_auditor_is_entered_for_every_close_of_its_kinds_and_no_other(self, counted):
        _operations, tracer, report, auditor = counted
        assert report.ok, report.render()
        closed = Counter(span.kind for span in tracer.spans)
        assert set(closed) <= Auditor.span_kinds
        assert auditor.entered == {kind: closed[kind] for kind in closed}

    def test_no_monitor_is_entered_for_a_name_it_did_not_declare(self, counted):
        _operations, _tracer, _report, auditor = counted
        assert auditor.undeclared == Counter()

    def test_spans_seen_is_every_close(self, counted):
        _operations, tracer, report, _auditor = counted
        assert report.spans_seen == tracer.closed == len(tracer.spans)

    def test_off_traced_and_audited_do_identical_operations(self, counted):
        operations = counted[0]
        assert self._run("off")[0] == self._run("traced")[0] == operations > 0

    def test_closes_per_operation_stay_within_budget(self, counted):
        operations, tracer, _report, _auditor = counted
        assert tracer.closed <= self.CLOSES_PER_OPERATION * operations
