"""Adaptive quorum tuning: mix observation, the quorum chooser, online switches.

Four layers are pinned here:

* the :class:`MixObserver` windowing/classification arithmetic;
* :func:`~repro.quorum.search.cheapest_assignment` — messages, round
  trips, availability floor, tie order, embedding over a replica
  subset — whose winner always satisfies the relation it was given;
* the :class:`QuorumTuner` end to end: a skewed workload triggers an
  epoch switch, the audited run stays green across it, the switch
  saves messages, each mechanism tunes under its own relation, and
  with the tuner disabled runs are byte-identical to the untuned
  baseline;
* tuned against static layouts on an eight-object keyspace whose mix
  shifts: the tuner beats every static, and its run is pinned.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.dependency import known
from repro.dependency.relation import DependencyRelation
from repro.histories.events import Invocation
from repro.obs.audit import Auditor
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.quorum import constraints
from repro.quorum.availability import binomial_tail
from repro.quorum.coterie import EmptyCoterie, SubsetThresholdCoterie
from repro.quorum.search import (
    ThresholdChoice,
    assignment_messages,
    cheapest_assignment,
    embed_choice,
    needed_thresholds,
    valid_threshold_choices,
)
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec, PlacementRule
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.tuning import MixObserver, TunerConfig
from repro.types import PROM, Queue
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


def _cheapest(relation, weights, replicas=tuple(range(5)), n_sites=5, **options):
    return cheapest_assignment(
        relation, Queue().operations(), weights, replicas, n_sites, **options
    )


def _ranked(relation, weights, n, p_up=0.9):
    """Every layout ``cheapest_assignment`` may pick, by its stated order:
    messages, round trips, higher availability, then ``describe()``."""
    ranked = []
    for choice in valid_threshold_choices(relation, n, Queue().operations()):
        if any(k == 0 for _op, k in choice.initial):
            continue
        messages = sum(
            w * (choice.initial_of(op) + choice.final_of(op))
            for op, w in weights.items()
        )
        trips = sum(
            w * ((choice.initial_of(op) > 0) + (choice.final_of(op) > 0))
            for op, w in weights.items()
        )
        availability = min(
            binomial_tail(n, k, p_up) for _op, k in needed_thresholds(choice)
        )
        ranked.append(((messages, trips, -availability, choice.describe()), choice))
    return [choice for _key, choice in sorted(ranked, key=lambda item: item[0])]


class TestCheapestAssignment:
    def test_the_mix_prices_messages(self):
        weights = {"Enq": 0.9, "Deq": 0.1}
        choice, assignment, messages = _cheapest(_queue_relation(), weights)
        # Enq-heavy: Enq reads one site; Deq pays for it.
        assert choice.initial_of("Enq") == 1
        assert messages == pytest.approx(
            sum(
                w * (choice.initial_of(op) + choice.final_of(op))
                for op, w in weights.items()
            )
        )
        assert assignment_messages(assignment, weights) == pytest.approx(messages)
        assert constraints.satisfies(assignment, _queue_relation())

    @pytest.mark.parametrize(
        "weights",
        [{"Enq": 0.5, "Deq": 0.5}, {"Enq": 0.9, "Deq": 0.1}, {"Deq": 1.0}, {}],
        ids=["balanced", "enq-heavy", "deq-only", "empty"],
    )
    def test_ties_resolve_by_round_trips_availability_then_text(self, weights):
        """Balanced and empty mixes tie on messages across much of the
        spectrum; the winner is the first of the stated order."""
        for n in (3, 5):
            relation = _queue_relation(n)
            choice, _assignment, _messages = _cheapest(
                relation, weights, range(n), n
            )
            assert choice == _ranked(relation, weights, n)[0]

    def test_a_zero_final_is_a_one_phase_operation(self):
        choice, _assignment, _messages = _cheapest(
            DependencyRelation(), {"Enq": 1.0, "Deq": 1.0}
        )
        # No pair to meet: one-site reads, and no final quorum at all.
        assert choice.initial == (("Deq", 1), ("Enq", 1))
        assert {k for _cls, k in choice.final} == {0}

    def test_the_availability_floor_filters(self):
        weights = {"Enq": 0.9, "Deq": 0.1}
        relation = _queue_relation()
        assert _cheapest(relation, weights, availability_floor=1.1) is None
        cheap, _assignment, _messages = _cheapest(relation, weights)
        worst = min(
            binomial_tail(5, k, 0.9) for _op, k in needed_thresholds(cheap)
        )
        floored, _assignment, messages = _cheapest(
            relation, weights, availability_floor=worst + 1e-9
        )
        assert min(
            binomial_tail(5, k, 0.9) for _op, k in needed_thresholds(floored)
        ) > worst
        assert messages >= _cheapest(relation, weights)[2]

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

    @pytest.mark.parametrize(
        "weights", [{"Enq": 0.9, "Deq": 0.1}, {"Enq": 0.1, "Deq": 0.9}]
    )
    def test_the_winner_is_embedded_over_the_replica_subset(self, weights):
        relation = known.ground(Queue(), known.QUEUE_STATIC, 3)
        choice, assignment, _messages = _cheapest(relation, weights, (4, 1, 2))
        assert choice.n_sites == 3 and assignment.n_sites == 5
        for coterie in (*assignment.initial_coteries(), *assignment.final_coteries()):
            if not isinstance(coterie, EmptyCoterie):
                assert isinstance(coterie, SubsetThresholdCoterie)
                assert coterie.members == frozenset({1, 2, 4})
        assert constraints.satisfies(assignment, relation)


def _tuned_cluster(seed=0, tracer=None):
    return cluster_of(5, hybrid_queue(), seed=seed, tracer=tracer)


ENQ_HEAVY = OperationMix.weighted(
    [
        ("queue", Queue().invocations()[0], 9.0),  # Enq
        ("queue", Queue().invocations()[2], 1.0),  # Deq
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
        # SHA-256 of the fingerprint and switch schedule.  First taken
        # where a one-request-at-a-time front-end produced the same
        # bytes; re-taken when ENQ_HEAVY's Deq entry was corrected (the
        # reconfigurations' quorum rounds left the bytes as they were).
        cluster = _tuned_cluster()
        tuner = cluster.enable_tuning(FAST_TUNING)
        metrics = _run(cluster, tuner)
        assert tuner.switches  # switches actually happened
        pinned = json.dumps(
            [_fingerprint(cluster, metrics), tuner.switches], sort_keys=True
        )
        assert hashlib.sha256(pinned.encode()).hexdigest() == (
            "b86eb8b871c082a683524fbc1e7bb971af553d13d6207fd999f7fa2b30b7603d"
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

    def test_static_and_dynamic_objects_tune_under_their_own_relations(self):
        """Each mechanism's relation decides its layouts (Theorem 11).
        From ``4/4`` quorums on five sites, an Enq-heavy mix moves a
        static Queue to one-site Enqs, while a dynamic one must meet
        ``Enq ≥ Enq;Ok``: its Enq quorums still sum past five."""
        layouts = {}
        for scheme in ("static", "dynamic"):
            spec = ObjectSpec("queue", Queue(), scheme, quorums=(4, 4))
            cluster = cluster_of(5, spec, seed=0, tracer=Tracer())
            auditor = Auditor(cluster, mode="streaming")
            tuner = cluster.enable_tuning(FAST_TUNING)
            assert tuner.tunable_objects() == ("queue",)
            _run(cluster, tuner)
            report = auditor.finish()
            assert report.ok and not report.violations, report.render()
            obj = cluster.tm.object("queue")
            assert tuner.switches and obj.epoch == len(tuner.switches)
            assert constraints.satisfies(obj.assignment, obj.relation)
            layouts[scheme] = obj.assignment
        enq = {
            scheme: (
                assignment.initial("Enq").smallest_quorum_size(),
                assignment.final("Enq", "Ok").smallest_quorum_size(),
            )
            for scheme, assignment in layouts.items()
        }
        assert enq["static"] == (1, 1)
        assert sum(enq["dynamic"]) > 5

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


# -- tuned vs static layouts on a keyspace whose mix shifts ---------------
#
# Eight objects (four hybrid FIFO queues, four hybrid PROMs under the
# paper's ``≥H``), ring-placed over five sites with three replicas each.
# Halfway through, the queues flip from enqueue- to dequeue-heavy, so no
# fixed layout wins both halves.  The statics are ``default`` (the
# majority layout every object starts with) and ``read_opt`` /
# ``write_opt``, each object fixed at the chooser's winner for a nominal
# mix; the tuned run starts from ``default``, must find the mix online,
# and is charged its own hand-over messages.

SITES = 5
PHASE_TRANSACTIONS = 144
P_UP = 0.9
#: Tuned messages/commit must sit at least this far below ``default``.
DEFAULT_SAVING_FLOOR = 0.15
#: A 4-op window sees a mid-run mix flip within ~8 operations per
#: object; the 10% hysteresis still blocks churn on a steady mix.
PHASE_TUNING = TunerConfig(window=4, evaluate_every=2, min_samples=4, hysteresis=0.10)
#: SHA-256 of the tuned run's ``{"fingerprint", "switches"}``, taken
#: where a one-request-at-a-time front-end produced the same bytes.
PINNED_TUNED = {
    PHASE_TRANSACTIONS: "812358f347356b0e0b601bbcbb0c136c5e3b3080a6fc85fc781f8ca59ad7d8da",
}
QUEUE_NAMES = tuple(f"queue-{i}" for i in range(4))
PROM_NAMES = tuple(f"prom-{i}" for i in range(4))
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


def _phase_keyspace(tracer=None):
    queue, prom = Queue(), PROM()
    rule = PlacementRule.ring(3)
    prom_relation = known.ground(prom, known.PROM_HYBRID, 5)
    specs = [ObjectSpec(name, queue, placement=rule) for name in QUEUE_NAMES] + [
        ObjectSpec(name, prom, placement=rule, relation=prom_relation)
        for name in PROM_NAMES
    ]
    cluster = build_keyspace(KeyspaceSpec(SITES, tuple(specs)), seed=0, tracer=tracer)
    return cluster


def _seal_proms(cluster):
    """Sealed PROMs serve ``Ok`` reads, the steady state the mix reads.
    Setup, not measured traffic."""
    for name in PROM_NAMES:
        txn = cluster.tm.begin(0)
        cluster.frontends[0].execute(txn, name, Invocation("Seal"))
        cluster.tm.commit(txn)


def _phase_mix(enq, deq, read):
    items = [(name, Invocation("Enq", ("a",)), enq) for name in QUEUE_NAMES]
    items += [(name, Invocation("Deq"), deq) for name in QUEUE_NAMES]
    items += [(name, Invocation("Read"), read) for name in PROM_NAMES]
    return OperationMix.weighted(items)


def _run_phases(cluster, tuner=None):
    """Enqueue-heavy, then dequeue-heavy, through one metric recorder."""
    shared, consumed = {}, 0
    for mix in (_phase_mix(8.0, 1.0, 4.0), _phase_mix(1.0, 8.0, 4.0)):
        count = PHASE_TRANSACTIONS // 2
        generator = WorkloadGenerator(
            cluster.sim,
            cluster.tm,
            cluster.frontends,
            mix,
            ops_per_transaction=3,
            concurrency=4,
            **shared,
        )
        if tuner is not None:
            generator.on_transaction_start = (
                lambda index, _o=consumed: tuner.on_transaction_start(index + _o)
            )
        shared["metrics"] = generator.run(count)
        consumed += count
    return shared["metrics"]


def _phase_cell(config):
    """``(messages/commit, pooled p95 latency, switches, fingerprint)``."""
    cluster = _phase_keyspace()
    _seal_proms(cluster)
    tuner = None
    if config in NOMINAL_WEIGHTS:
        for name, weights in sorted(NOMINAL_WEIGHTS[config].items()):
            obj = cluster.tm.object(name)
            _choice_, assignment, _messages = cheapest_assignment(
                obj.relation,
                obj.datatype.operations(),
                weights,
                cluster.placement.replicas(name),
                SITES,
                p_up=P_UP,
            )
            cluster.reconfigure(name, assignment)
    elif config == "tuned":
        tuner = cluster.enable_tuning(PHASE_TUNING)
    setup = cluster.network.messages_sent
    metrics = _run_phases(cluster, tuner)
    samples = sorted(x for xs in metrics.latencies.values() for x in xs)
    return (
        (cluster.network.messages_sent - setup) / metrics.committed_transactions,
        samples[min(len(samples) - 1, int(0.95 * (len(samples) - 1)))],
        list(tuner.switches) if tuner is not None else [],
        _fingerprint(cluster, metrics),
    )


@pytest.fixture(scope="module")
def phase_cells():
    return {
        config: _phase_cell(config)
        for config in ("default", "read_opt", "write_opt", "tuned")
    }


class TestTunedPhaseShift:
    def test_tuned_beats_every_static(self, phase_cells):
        tuned, tuned_p95, switches, _fingerprint_ = phase_cells["tuned"]
        assert switches, "the tuner never reconfigured on the shifting mix"
        for config in ("default", "read_opt", "write_opt"):
            assert tuned < phase_cells[config][0], config
        default, default_p95 = phase_cells["default"][:2]
        assert 1 - tuned / default >= DEFAULT_SAVING_FLOOR
        assert tuned_p95 <= default_p95

    def test_tuned_run_matches_its_pin(self, phase_cells):
        _messages, _p95, switches, fingerprint = phase_cells["tuned"]
        pinned = json.dumps(
            {"fingerprint": fingerprint, "switches": switches}, sort_keys=True
        )
        assert (
            hashlib.sha256(pinned.encode()).hexdigest()
            == PINNED_TUNED[PHASE_TRANSACTIONS]
        )

    def test_an_undriven_tuner_is_byte_identical(self):
        baseline, passive = _phase_keyspace(), _phase_keyspace()
        _seal_proms(baseline)
        _seal_proms(passive)
        passive.enable_tuning(PHASE_TUNING)  # observer installed, never driven
        base_metrics, passive_metrics = _run_phases(baseline), _run_phases(passive)
        assert _fingerprint(passive, passive_metrics) == _fingerprint(
            baseline, base_metrics
        )

    def test_the_audited_tuned_run_is_clean(self):
        cluster = _phase_keyspace(tracer=Tracer())
        auditor = Auditor(cluster)
        _seal_proms(cluster)  # after binding: the captured history is complete
        tuner = cluster.enable_tuning(PHASE_TUNING)
        _run_phases(cluster, tuner)
        report = auditor.finish()
        assert tuner.switches, "the audited run never reconfigured"
        assert report.ok and not report.violations, report.render()
        assert "reconfig-epoch" in report.monitors
