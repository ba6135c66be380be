"""Adaptive quorum tuning: mix observation, cost model, online switches.

Three layers are pinned here:

* the :class:`MixObserver` windowing/classification arithmetic;
* the cost model — messages, round trips, availability — and the
  legality gate in front of it (every candidate the tuner may ever
  install satisfies the minimal-dependency constraints);
* the :class:`QuorumTuner` end to end: a skewed workload triggers an
  epoch switch, the audited run stays green across it, the switch
  saves messages, and the whole thing is deterministic across RPC
  modes — with the tuner disabled, runs are byte-identical to the
  untuned baseline.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.dependency import known
from repro.obs.audit import Auditor
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.quorum import constraints
from repro.quorum.coterie import EmptyCoterie, SubsetThresholdCoterie
from repro.quorum.search import ThresholdChoice
from repro.replication.keyspace import ObjectSpec
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.tuning import (
    MixObserver,
    QuorumTuner,
    TunerConfig,
    assignment_messages,
    choice_availability,
    choice_messages,
    choice_round_trips,
    embed_choice,
    legal_candidates,
    score_candidates,
)
from repro.types import Queue
from tests.helpers import cluster_of, hybrid_queue

pytestmark = pytest.mark.tuning

READ_OPS = {"obj": frozenset({"Read"})}


class TestMixObserver:
    def test_counts_and_read_fraction(self):
        observer = MixObserver(READ_OPS, window=16)
        for _ in range(3):
            observer.observe("obj", "Read")
        observer.observe("obj", "Write")
        assert observer.counts("obj") == (3, 1)
        assert observer.read_fraction("obj") == 0.75
        assert observer.read_fraction("ghost") is None
        assert observer.object_names() == ("obj",)

    def test_unknown_objects_count_as_writes(self):
        observer = MixObserver(READ_OPS, window=16)
        observer.observe("other", "Read")
        assert observer.counts("other") == (0, 1)

    def test_weights_are_normalized(self):
        observer = MixObserver(READ_OPS, window=16)
        for _ in range(6):
            observer.observe("obj", "Read")
        for _ in range(2):
            observer.observe("obj", "Write")
        assert observer.weights("obj") == {"Read": 0.75, "Write": 0.25}
        assert observer.weights("ghost") == {}

    def test_two_bucket_rotation_forgets_old_mix(self):
        observer = MixObserver(READ_OPS, window=4)
        # Fill two full buckets with reads, then a full bucket of writes:
        # the read era must have rotated entirely out of the window.
        for _ in range(8):
            observer.observe("obj", "Read")
        for _ in range(4):
            observer.observe("obj", "Write")
        assert observer.weights("obj") == {"Write": 1.0}
        # Windowed samples stay within [window, 2*window).
        assert observer.samples("obj") <= 2 * observer.window
        # Cumulative totals never rotate.
        assert observer.counts("obj") == (8, 4)

    def test_state_is_bounded_by_distinct_ops(self):
        observer = MixObserver(READ_OPS, window=8)
        for i in range(10_000):
            observer.observe("obj", "Read" if i % 2 else "Write")
        # Two buckets x two op names + two cumulative cells.
        assert observer.state_cells() <= 2 * 2 + 2

    def test_registry_counters(self):
        registry = MetricsRegistry()
        observer = MixObserver(READ_OPS, window=8, registry=registry)
        observer.observe("obj", "Read")
        observer.observe("obj", "Write")
        assert registry.counter("mix.reads").value == 1
        assert registry.counter("mix.writes").value == 1

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            MixObserver(READ_OPS, window=0)


def _queue_relation(n=5):
    return known.ground(Queue(), known.QUEUE_STATIC, n)


def _choice(n, init_enq, init_deq, final_enq, final_deq):
    return ThresholdChoice(
        n_sites=n,
        initial=(("Deq", init_deq), ("Enq", init_enq)),
        final=((("Deq", "Ok"), final_deq), (("Enq", "Ok"), final_enq)),
    )


class TestCostModel:
    def test_choice_messages_weights_the_mix(self):
        majority = _choice(5, 3, 3, 3, 3)
        assert choice_messages(majority, {"Enq": 0.5, "Deq": 0.5}) == 6.0
        lopsided = _choice(5, 1, 5, 5, 1)  # Enq cheap, Deq expensive
        assert choice_messages(lopsided, {"Enq": 1.0}) == 6.0
        assert choice_messages(lopsided, {"Enq": 0.9, "Deq": 0.1}) == pytest.approx(
            0.9 * 6 + 0.1 * 6
        )

    def test_round_trips_count_phases(self):
        majority = _choice(5, 3, 3, 3, 3)
        assert choice_round_trips(majority, {"Enq": 1.0}) == 2.0
        # A zero final quorum is a one-phase operation.
        one_phase = ThresholdChoice(
            n_sites=5,
            initial=(("Deq", 5), ("Enq", 5)),
            final=((("Deq", "Ok"), 0), (("Enq", "Ok"), 0)),
        )
        assert choice_round_trips(one_phase, {"Enq": 1.0}) == 1.0

    def test_availability_is_monotone_in_p_up(self):
        majority = _choice(5, 3, 3, 3, 3)
        low = choice_availability(majority, 0.5)
        high = choice_availability(majority, 0.95)
        assert 0.0 < low < high <= 1.0

    def test_embed_choice_shapes(self):
        choice = _choice(5, 1, 5, 5, 0)
        full = embed_choice(choice, tuple(range(5)), 5)
        assert full.initial("Enq").members == frozenset(range(5))
        assert repr(full.initial("Enq")) == "ThresholdCoterie(1 of 5)"
        assert isinstance(full.final("Deq", "Ok"), EmptyCoterie)

        sub_choice = _choice(3, 1, 3, 3, 1)
        subset = embed_choice(sub_choice, (0, 2, 4), 5)
        initial = subset.initial("Deq")
        assert isinstance(initial, SubsetThresholdCoterie)
        assert initial.members == frozenset({0, 2, 4})
        assert initial.threshold == 3
        assert subset.n_sites == 5

    def test_embed_choice_rejects_replica_mismatch(self):
        with pytest.raises(ValueError):
            embed_choice(_choice(5, 3, 3, 3, 3), (0, 1, 2), 5)

    def test_legal_candidates_all_satisfy_constraints(self):
        relation = _queue_relation()
        candidates = legal_candidates(
            relation, tuple(range(5)), 5, Queue().operations()
        )
        assert candidates  # the space is non-trivial
        for choice, assignment in candidates:
            assert constraints.satisfies(assignment, relation)
            # Reads must still reach at least one site.
            assert all(choice.initial_of(op) >= 1 for op in ("Enq", "Deq"))

    def test_legal_candidates_embed_over_subset(self):
        relation = known.ground(Queue(), known.QUEUE_STATIC, 3)
        candidates = legal_candidates(relation, (1, 2, 4), 5, Queue().operations())
        for _choice_, assignment in candidates:
            assert assignment.n_sites == 5
            for op in ("Enq", "Deq"):
                coterie = assignment.initial(op)
                if isinstance(coterie, SubsetThresholdCoterie):
                    assert coterie.members == frozenset({1, 2, 4})

    def test_score_candidates_sorted_and_floor_filtered(self):
        relation = _queue_relation()
        candidates = legal_candidates(
            relation, tuple(range(5)), 5, Queue().operations()
        )
        weights = {"Enq": 0.9, "Deq": 0.1}
        scored = score_candidates(candidates, weights, p_up=0.9)
        messages = [s.messages for s, _a in scored]
        assert messages == sorted(messages)
        # An impossible availability floor filters everything.
        assert score_candidates(
            candidates, weights, p_up=0.9, availability_floor=1.1
        ) == []

    def test_assignment_messages_matches_choice_messages(self):
        relation = _queue_relation()
        candidates = legal_candidates(
            relation, tuple(range(5)), 5, Queue().operations()
        )
        weights = {"Enq": 0.5, "Deq": 0.5}
        for choice, assignment in candidates[:8]:
            assert assignment_messages(assignment, weights) == pytest.approx(
                choice_messages(choice, weights)
            )


def _tuned_cluster(seed=0, tracer=None):
    return cluster_of(5, hybrid_queue(), seed=seed, tracer=tracer)


ENQ_HEAVY = OperationMix.weighted(
    [
        ("queue", Queue().invocations()[0], 9.0),  # Enq
        ("queue", Queue().invocations()[1], 1.0),  # Deq
    ]
)

FAST_TUNING = TunerConfig(window=24, evaluate_every=8, min_samples=12)


def _run(cluster, tuner=None, transactions=60):
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        ENQ_HEAVY,
        ops_per_transaction=3,
        concurrency=4,
    )
    if tuner is not None:
        generator.on_transaction_start = tuner.on_transaction_start
    metrics = generator.run(transactions)
    return metrics


def _fingerprint(cluster, metrics):
    return {
        "outcomes": sorted(
            [op, outcome, count]
            for (op, outcome), count in metrics.outcomes.items()
        ),
        "messages_sent": cluster.network.messages_sent,
        "messages_dropped": cluster.network.messages_dropped,
    }


class TestQuorumTuner:
    def test_skewed_mix_triggers_epoch_switch(self):
        cluster = _tuned_cluster()
        registry = MetricsRegistry()
        tuner = cluster.enable_tuning(FAST_TUNING, registry=registry)
        _run(cluster, tuner)
        obj = cluster.tm.object("queue")
        assert obj.epoch >= 1
        assert tuner.switches
        name, epoch, layout = tuner.switches[0]
        assert name == "queue" and epoch == 1
        # Enq-heavy: the winner makes Enq cheap.
        assert "Enq: init 1" in layout
        assert registry.counter("tuning.switches").value == len(tuner.switches)
        assert registry.counter("reconfig.success").value >= 1

    def test_switch_saves_messages_on_skewed_mix(self):
        baseline = _tuned_cluster()
        _run(baseline)
        tuned = _tuned_cluster()
        tuner = tuned.enable_tuning(FAST_TUNING)
        _run(tuned, tuner)
        assert tuner.switches
        assert tuned.network.messages_sent < baseline.network.messages_sent

    def test_audit_green_across_the_switch(self):
        tracer = Tracer()
        cluster = _tuned_cluster(tracer=tracer)
        auditor = Auditor(cluster)
        tuner = cluster.enable_tuning(FAST_TUNING)
        _run(cluster, tuner)
        assert tuner.switches  # the run really did reconfigure
        report = auditor.finish()
        assert report.ok, report.render()
        assert "reconfig-epoch" in report.monitors

    def test_tuned_run_matches_its_pin(self):
        # SHA-256 of the fingerprint and switch schedule, taken where a
        # one-request-at-a-time front-end produced the same bytes.
        cluster = _tuned_cluster()
        tuner = cluster.enable_tuning(FAST_TUNING)
        metrics = _run(cluster, tuner)
        assert tuner.switches  # switches actually happened
        pinned = json.dumps(
            [_fingerprint(cluster, metrics), tuner.switches], sort_keys=True
        )
        assert hashlib.sha256(pinned.encode()).hexdigest() == (
            "540342ed7d3bbde4ca36aa56492c9b0e42dec49d8f6a34e4b4733f599bf62774"
        )

    def test_disabled_tuner_is_byte_identical_to_baseline(self):
        baseline = _tuned_cluster()
        base_metrics = _run(baseline)
        passive = _tuned_cluster()
        # Constructed (so the observer hooks are installed) but never
        # driven: observation must not perturb the execution.
        passive.enable_tuning(FAST_TUNING)
        passive_metrics = _run(passive)
        assert _fingerprint(passive, passive_metrics) == _fingerprint(
            baseline, base_metrics
        )
        assert passive.tm.object("queue").epoch == 0

    def test_static_scheme_objects_are_not_tunable(self):
        cluster = cluster_of(3, ObjectSpec("queue", Queue(), "static"), seed=0)
        tuner = cluster.enable_tuning(FAST_TUNING)
        assert tuner.tunable_objects() == ()
        assert tuner.maybe_tune() == 0

    def test_hysteresis_blocks_marginal_moves(self):
        cluster = _tuned_cluster()
        config = TunerConfig(
            window=24, evaluate_every=8, min_samples=12, hysteresis=1.0
        )
        tuner = cluster.enable_tuning(config)
        _run(cluster, tuner)
        # Nothing can beat the incumbent by 100%.
        assert tuner.switches == []
        assert cluster.tm.object("queue").epoch == 0
