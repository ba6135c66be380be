"""Resilience layer: policies, recovery replay, heal-driven anti-entropy,
and the seeded chaos sweep's determinism and cleanliness guarantees."""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.errors import DegradedOperation, SimulationError, UnavailableError
from repro.histories.events import Invocation
from repro.replication.keyspace import ObjectSpec
from repro.resilience import (
    POLICIES,
    Deadline,
    RetryPolicy,
    read_only_operations,
)
from repro.resilience.chaos import (
    PROFILES,
    ChaosSchedule,
    generate_schedule,
    run_chaos_case,
    run_chaos_sweep,
)
from repro.resilience.recovery import CHECKPOINT_EVERY
from repro.sim.kernel import Simulator
from repro.types.queue import Queue
from repro.types.register import Register
from tests.helpers import cluster_of, hybrid_queue

pytestmark = pytest.mark.resilience

ENQ = Invocation("Enq", ("a",))
DEQ = Invocation("Deq")
READ = Invocation("Read")
WRITE = Invocation("Write", ("x",))


def _queue_cluster(n_sites=3, seed=0, tracer=None):
    return cluster_of(n_sites, hybrid_queue(), seed=seed, tracer=tracer)


def _register_cluster(n_sites=5, seed=0):
    """Register with majority initials but 4-of-5 finals (see chaos.py)."""
    register = ObjectSpec(
        "register", Register(), "static", quorums=(n_sites // 2 + 1, 4)
    )
    return cluster_of(n_sites, register, seed=seed)


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy()
        for attempt in (1, 2, 3, 4):
            raw = 2.0 * 2.0 ** (attempt - 1)
            a = policy.backoff(attempt, key=(7, 3))
            b = POLICIES["degraded"].backoff(attempt, key=(7, 3))
            assert a == b  # pure function of (key, attempt), whatever the policy
            assert raw * 0.75 <= a <= raw * 1.25

    def test_different_keys_desynchronize_jitter(self):
        policy = RetryPolicy()
        delays = {policy.backoff(1, key=(site, 1)) for site in range(8)}
        assert len(delays) > 1

    def test_backoff_is_capped_at_thirty(self):
        # 2·2^4 = 32 would exceed the cap: attempt 5 and later back off
        # around 30, not exponentially.
        policy = RetryPolicy()
        for attempt in (5, 6, 9):
            assert 30.0 * 0.75 <= policy.backoff(attempt, key=(1,)) <= 30.0 * 1.25

    def test_allows_respects_attempts_and_deadline(self):
        sim = Simulator(seed=0)
        policy = RetryPolicy(max_attempts=3, op_budget=10.0)
        deadline = policy.deadline(sim)
        assert policy.allows(1, deadline) and policy.allows(2, deadline)
        assert not policy.allows(3, deadline)
        sim.advance(10.0)
        assert deadline.expired
        assert not policy.allows(1, deadline)

    def test_no_retry_policy_is_single_shot(self):
        policy = POLICIES["no-retry"]
        assert not policy.allows(1)
        assert policy.txn_attempts == 1 and not policy.degraded_reads

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(txn_attempts=0)

    def test_deadline_expires_once_its_budget_is_spent(self):
        sim = Simulator(seed=0)
        unbounded = Deadline(sim, None)
        bounded = Deadline(sim, 5.0)
        sim.advance(2.0)
        assert not unbounded.expired and not bounded.expired
        sim.advance(3.0)
        assert bounded.expired
        sim.advance(1e9)
        assert not unbounded.expired

    def test_a_deadline_counts_from_when_it_started(self):
        sim = Simulator(seed=0)
        sim.advance(100.0)
        deadline = RetryPolicy(op_budget=5.0).deadline(sim)
        assert deadline.started_at == 100.0 and deadline.budget == 5.0
        sim.advance(4.0)
        assert not deadline.expired
        sim.advance(1.0)
        assert deadline.expired

    def test_an_unbudgeted_policy_counts_attempts_only(self):
        sim = Simulator(seed=0)
        policy = RetryPolicy(max_attempts=2, op_budget=None)
        deadline = policy.deadline(sim)
        sim.advance(1e9)
        assert not deadline.expired
        assert policy.allows(1, deadline) and policy.allows(1)
        assert not policy.allows(2, deadline)

    def test_degraded_is_the_default_policy_plus_the_fallback(self):
        assert POLICIES["degraded"] == replace(
            POLICIES["default"], degraded_reads=True
        )
        assert not POLICIES["default"].degraded_reads
        assert POLICIES["default"].max_attempts > 1

    def test_the_first_retry_backs_off_around_the_base_delay(self):
        policy = RetryPolicy()
        for key in ((0,), (1, 2), (5, 5, 5)):
            assert 2.0 * 0.75 <= policy.backoff(1, key=key) <= 2.0 * 1.25


class TestReadOnlyClassification:
    def test_register_read_is_read_only(self):
        assert read_only_operations(Register()) == frozenset({"Read"})

    def test_queue_has_no_read_only_operations(self):
        # Enq grows the state and Deq shrinks it; the classifier must
        # terminate despite Queue's unbounded state space.
        assert read_only_operations(Queue()) == frozenset()

    def test_cache_returns_same_result(self):
        reg = Register()
        assert read_only_operations(reg) is read_only_operations(reg)


class TestRetryExecution:
    def test_retry_rideses_through_a_scheduled_recovery(self):
        cluster = _queue_cluster(n_sites=3)
        fe = cluster.frontends[0]
        cluster.tm.retry_policy = RetryPolicy(max_attempts=4, op_budget=None)
        cluster.network.crash(1)
        cluster.network.crash(2)
        # The site comes back while the front-end is backing off; the
        # drain inside the retry loop must dispatch it.
        cluster.sim.schedule(3.0, lambda: cluster.network.recover(1))
        txn = cluster.tm.begin(site=0)
        response = fe.execute(txn, "queue", ENQ)
        assert response.kind == "Ok"
        assert fe._retry_seq >= 1
        cluster.tm.commit(txn)

    def test_without_policy_failure_is_immediate(self):
        cluster = _queue_cluster(n_sites=3)
        cluster.network.crash(1)
        cluster.network.crash(2)
        txn = cluster.tm.begin(site=0)
        before = cluster.sim.now
        with pytest.raises(UnavailableError):
            cluster.frontends[0].execute(txn, "queue", ENQ)
        # No backoff was taken: only the probe latency elapsed.
        assert cluster.sim.now - before < 5.0

    def test_deadline_budget_stops_retries(self):
        cluster = _queue_cluster(n_sites=3)
        fe = cluster.frontends[0]
        cluster.tm.retry_policy = RetryPolicy(max_attempts=10, op_budget=20.0)
        cluster.network.crash(1)
        cluster.network.crash(2)
        txn = cluster.tm.begin(site=0)
        with pytest.raises(UnavailableError):
            fe.execute(txn, "queue", ENQ)
        # Retried at least once, but far fewer than max_attempts.
        assert 1 <= fe._retry_seq < 9

    def test_cluster_policy_applies_through_tm(self):
        cluster = _queue_cluster(n_sites=3)
        assert cluster.tm.retry_policy is None
        runtime = cluster.enable_resilience()
        assert cluster.tm.retry_policy is runtime.policy is POLICIES["default"]


class TestDegradedReads:
    def _crashed_register_cluster(self):
        cluster = _register_cluster()
        cluster.tm.retry_policy = RetryPolicy(
            max_attempts=1, txn_attempts=1, degraded_reads=True
        )
        # Two down: majority (3-of-5) initial quorums assemble, 4-of-5
        # finals cannot.
        cluster.network.crash(3)
        cluster.network.crash(4)
        return cluster

    def test_read_falls_back_and_is_surfaced_as_degraded(self):
        cluster = self._crashed_register_cluster()
        txn = cluster.tm.begin(site=0)
        result = cluster.frontends[0].execute_outcome(txn, "register", READ)
        assert result.degraded
        assert result.response.kind == "Ok"
        assert result.response.values == ("0",)  # the register default
        # Nothing joined the transaction: no sync entries, not touched.
        obj = cluster.tm.object("register")
        assert list(obj.sync.own_entries(txn.id)) == []
        assert txn.touched == set()
        cluster.tm.commit(txn)

    def test_execute_raises_the_explicit_exception(self):
        cluster = self._crashed_register_cluster()
        txn = cluster.tm.begin(site=0)
        with pytest.raises(DegradedOperation) as excinfo:
            cluster.frontends[0].execute(txn, "register", READ)
        assert excinfo.value.operation == "Read"
        assert excinfo.value.response.values == ("0",)

    def test_writes_never_degrade(self):
        from repro.errors import TransactionAborted

        cluster = self._crashed_register_cluster()
        txn = cluster.tm.begin(site=0)
        with pytest.raises(TransactionAborted):
            cluster.frontends[0].execute(txn, "register", WRITE)

    def test_degraded_off_aborts_reads_too(self):
        from repro.errors import TransactionAborted

        cluster = self._crashed_register_cluster()
        cluster.tm.retry_policy = POLICIES["no-retry"]
        txn = cluster.tm.begin(site=0)
        with pytest.raises(TransactionAborted):
            cluster.frontends[0].execute(txn, "register", READ)


class TestCrashRecoveryReplay:
    def _run_some_ops(self, cluster, count=4):
        for _ in range(count):
            txn = cluster.tm.begin(site=0)
            cluster.frontends[0].execute(txn, "queue", ENQ)
            cluster.tm.commit(txn)

    def test_replay_reproduces_state_exactly(self):
        cluster = _queue_cluster(n_sites=3)
        cluster.enable_resilience()
        self._run_some_ops(cluster)
        repo = cluster.repositories[1]
        logs, snapshots = dict(repo._logs), dict(repo._snapshots)
        assert logs  # the workload really did write here
        cluster.network.crash(1)
        assert repo._logs == {} and repo._snapshots == {}  # volatile loss
        cluster.network.recover(1)
        assert dict(repo._logs) == logs
        assert dict(repo._snapshots) == snapshots

    def test_replay_reproduces_a_snapshot_install_exactly(self):
        from repro.replication.snapshot import compact

        cluster = _queue_cluster(n_sites=3)
        cluster.enable_resilience()
        self._run_some_ops(cluster)
        obj = cluster.tm.object("queue")
        snapshot = compact(cluster.network, cluster.repositories, obj, cluster.tm)
        assert snapshot is not None
        self._run_some_ops(cluster, count=2)
        # Site 0 served every write, so catching up on recovery adds nothing.
        repo = cluster.repositories[0]
        state = (dict(repo._logs), dict(repo._snapshots))
        assert state[1] == {"queue": snapshot} and len(state[0]["queue"]) == 2
        cluster.network.crash(0)
        assert repo._logs == {} and repo._snapshots == {}
        cluster.network.recover(0)
        assert (dict(repo._logs), dict(repo._snapshots)) == state
        assert repo.read_snapshot("queue") is snapshot

    def test_checkpoint_bounds_replay_and_stays_exact(self):
        cluster = _queue_cluster(n_sites=3)
        runtime = cluster.enable_resilience()
        self._run_some_ops(cluster)
        absorbed = sum(
            repo.journal.checkpoint(repo) for repo in cluster.repositories
        )
        assert absorbed > 0
        self._run_some_ops(cluster, count=2)
        repo = cluster.repositories[0]
        suffix = len(repo.journal.records)
        state = (dict(repo._logs), dict(repo._snapshots))
        cluster.network.crash(0)
        cluster.network.recover(0)
        assert (dict(repo._logs), dict(repo._snapshots)) == state
        assert repo.journal.replays == 1
        # Replay walked only the post-checkpoint suffix.
        assert suffix < absorbed + suffix

    def test_recovery_checkpoints_a_journal_of_checkpoint_every_records(self):
        cluster = _queue_cluster(n_sites=3)
        cluster.enable_resilience()
        repo = cluster.repositories[1]
        while len(repo.journal.records) < CHECKPOINT_EVERY:
            self._run_some_ops(cluster, count=1)
        state = (dict(repo._logs), dict(repo._snapshots))
        cluster.network.crash(1)
        cluster.network.recover(1)
        assert (dict(repo._logs), dict(repo._snapshots)) == state
        # Replayed, then absorbed into the checkpoint.
        assert repo.journal.replays == 1
        assert repo.journal.records == []

    def test_recovery_keeps_a_shorter_journal(self):
        cluster = _queue_cluster(n_sites=3)
        cluster.enable_resilience()
        self._run_some_ops(cluster, count=2)
        repo = cluster.repositories[1]
        records = list(repo.journal.records)
        assert 0 < len(records) < CHECKPOINT_EVERY
        cluster.network.crash(1)
        cluster.network.recover(1)
        assert repo.journal.replays == 1
        assert repo.journal.records == records

    def test_lose_volatile_requires_a_journal(self):
        cluster = _queue_cluster(n_sites=3)
        with pytest.raises(SimulationError):
            cluster.repositories[0].lose_volatile()
        with pytest.raises(SimulationError):
            cluster.repositories[0].restart()


class TestPartitionHealDriver:
    def test_recovered_site_catches_up_automatically(self):
        cluster = _queue_cluster(n_sites=3)
        runtime = cluster.enable_resilience()
        cluster.network.crash(2)
        for _ in range(3):
            txn = cluster.tm.begin(site=0)
            cluster.frontends[0].execute(txn, "queue", ENQ)
            cluster.tm.commit(txn)
        assert cluster.repositories[2].entry_count("queue") == 0
        cluster.network.recover(2)
        assert runtime.heal.recoveries_handled == 1
        assert cluster.repositories[2].entry_count(
            "queue"
        ) == cluster.repositories[0].entry_count("queue")
        summary = runtime.registry.histogram("resilience.recovery.latency").summary()
        assert summary["count"] >= 1 and summary["p50"] > 0
        # The catch-up repaired the three entries site 2 missed.
        repaired = runtime.registry.histogram("resilience.recovery.repaired")
        assert repaired.samples == (3,)

    def test_heal_bridges_former_partition_groups(self):
        cluster = _queue_cluster(n_sites=3)
        runtime = cluster.enable_resilience()
        cluster.network.partition((0, 1), (2,))
        for _ in range(3):
            txn = cluster.tm.begin(site=0)
            cluster.frontends[0].execute(txn, "queue", ENQ)
            cluster.tm.commit(txn)
        assert cluster.repositories[2].entry_count("queue") == 0
        cluster.network.heal()
        assert runtime.heal.heals_handled == 1
        assert cluster.repositories[2].entry_count(
            "queue"
        ) == cluster.repositories[0].entry_count("queue")

    def test_no_repair_probe_crosses_a_standing_cut(self):
        cluster = _queue_cluster(n_sites=3)
        runtime = cluster.enable_resilience()
        cluster.network.partition((0,), (1, 2))
        cluster.network.crash(0)
        cluster.network.recover(0)
        # Site 0 recovers alone on its side of the cut: with no reachable
        # peer the driver attempts nothing, so not even a probe is sent.
        assert runtime.heal.recoveries_handled == 1
        assert runtime.heal.heals_handled == 0
        assert cluster.network.messages_sent == 0
        assert runtime.registry.counter("resilience.recovery.syncs").value == 0
        assert runtime.registry.counter("resilience.recovery.failed").value == 0

    def test_recovery_behind_a_cut_pairs_with_a_reachable_peer(self):
        cluster = _queue_cluster(n_sites=3)
        runtime = cluster.enable_resilience()
        cluster.network.crash(1)
        for _ in range(2):
            txn = cluster.tm.begin(site=0)
            cluster.frontends[0].execute(txn, "queue", ENQ)
            cluster.tm.commit(txn)
        cluster.network.partition((0,), (1, 2))
        cluster.network.recover(1)
        # Site 0 is cut off; site 2 took part in every final quorum and
        # hands site 1 the entries it missed.
        assert runtime.heal.recoveries_handled == 1
        assert cluster.repositories[1].entry_count("queue") == 2
        assert runtime.registry.counter("resilience.recovery.syncs").value == 1


class TestFailureListeners:
    def test_listener_contract(self):
        cluster = cluster_of(3, seed=0)
        events = []
        cluster.network.add_failure_listener(
            lambda kind, **info: events.append((kind, info))
        )
        cluster.network.crash(1)
        cluster.network.recover(1)
        cluster.network.partition((0,), (1, 2))
        cluster.network.heal()
        kinds = [kind for kind, _info in events]
        assert kinds == ["crash", "recover", "partition", "heal"]
        assert events[0][1] == {"site": 1}
        former = events[3][1]["former_groups"]
        assert frozenset({0}) in former and frozenset({1, 2}) in former

    def test_listeners_run_in_registration_order(self):
        # Crash-recovery replay must restore a repository before the
        # heal driver synchronizes it: registration order is the contract.
        network = cluster_of(3, seed=0).network
        calls = []
        for name in ("first", "second", "third"):
            network.add_failure_listener(
                lambda kind, name=name, **info: calls.append((name, kind))
            )
        network.crash(2)
        network.heal()
        assert calls == [
            ("first", "crash"), ("second", "crash"), ("third", "crash"),
            ("first", "heal"), ("second", "heal"), ("third", "heal"),
        ]

    def test_a_listener_sees_the_state_after_the_change(self):
        network = cluster_of(3, seed=0).network
        seen = []
        network.add_failure_listener(
            lambda kind, **info: seen.append(
                (kind, network.crashed_sites, network.partitioned)
            )
        )
        network.crash(1)
        network.partition((0,), (1, 2))
        network.recover(1)
        network.heal()
        assert seen == [
            ("crash", frozenset({1}), False),
            ("partition", frozenset({1}), True),
            ("recover", frozenset(), True),
            ("heal", frozenset(), False),
        ]

    def test_a_partition_reports_its_implicit_rest_group(self):
        network = cluster_of(4, seed=0).network
        events = []
        network.add_failure_listener(lambda kind, **info: events.append(info))
        network.partition((0, 1))
        assert events == [{"groups": (frozenset({0, 1}), frozenset({2, 3}))}]

    def test_healing_an_unpartitioned_network_reports_no_former_groups(self):
        network = cluster_of(3, seed=0).network
        events = []
        network.add_failure_listener(
            lambda kind, **info: events.append((kind, info))
        )
        network.heal()
        assert events == [("heal", {"former_groups": ()})]


class TestChaosSchedules:
    def test_schedules_are_deterministic_per_seed(self):
        for profile in PROFILES:
            assert generate_schedule(profile, 5, 5, 20) == generate_schedule(
                profile, 5, 5, 20
            )
        assert generate_schedule("mixed", 0, 5, 20) != generate_schedule(
            "mixed", 1, 5, 20
        )

    def test_every_crash_is_paired_with_a_recovery(self):
        for seed in range(6):
            schedule = generate_schedule("crash", seed, 5, 24)
            crashed, recovered = [], []
            for actions in schedule.values():
                for action in actions:
                    if action[0] == "crash":
                        crashed.append(action[1])
                    elif action[0] == "recover":
                        recovered.append(action[1])
            # Recoveries may fall past the horizon (cleanup handles
            # them), but never the other way around.
            assert len(recovered) <= len(crashed)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            generate_schedule("meteor", 0, 5, 10)

    def test_applier_is_idempotent_against_cleanup(self):
        cluster = cluster_of(3, seed=0)
        schedule = ChaosSchedule(
            {0: (("recover", 1), ("heal",), ("crash", 2))}
        )
        schedule.apply_at(cluster.network, 0)
        # Site 1 was already up and nothing was partitioned: skipped,
        # not double-fired.
        assert schedule.applied == 1
        assert schedule.skipped == 2
        assert not cluster.network.is_up(2)


    def test_actions_fire_at_their_transaction_boundaries(self):
        cluster = cluster_of(3, seed=0)
        network = cluster.network
        hook = ChaosSchedule({0: (("crash", 1),), 2: (("recover", 1),)}).hook(
            network
        )
        hook(0)
        assert not network.is_up(1)
        hook(1)
        assert not network.is_up(1)
        hook(2)
        assert network.is_up(1)

    def test_partition_and_heal_apply_in_listed_order(self):
        cluster = cluster_of(4, seed=0)
        network = cluster.network
        events = []
        network.add_failure_listener(lambda kind, **info: events.append(kind))
        schedule = ChaosSchedule(
            {0: (("partition", ((0, 1), (2, 3))),), 1: (("heal",), ("crash", 0))}
        )
        schedule.apply_at(network, 0)
        assert not network.reachable(0, 2)
        schedule.apply_at(network, 1)
        assert network.reachable(1, 2)
        assert events == ["partition", "heal", "crash"]
        assert schedule.applied == 3 and schedule.skipped == 0


class TestChaosDeterminism:
    #: SHA-256 of ``degraded``-policy chaos fingerprints, taken where a
    #: one-request-at-a-time front-end produced the same bytes, and
    #: re-taken (audit-clean, converged) when the classic register
    #: became hybrid.
    PINNED = {
        ("churn", 0): "69b38ec19b826f72138db5b9fd36ffb200929764ed044bc6d3497baadbc32d83",
        ("churn", 2): "98f70406fceb4d1efa70367f8b8af32b2fec27d14cb9b74b247a81d9d15b248e",
        ("mixed", 0): "77c485805c2539d2e3cdefa913fd300767ac6da332dd40c0f6111ae5de0e8352",
        ("mixed", 2): "c34a06d99865253f102fe5ab198c38d58fff6148192dc32cb90680d343c8b67f",
    }

    @pytest.mark.parametrize("profile", ["churn", "mixed"])
    def test_fingerprints_match_their_pins(self, profile):
        for seed in (0, 2):
            fingerprint = run_chaos_case(
                seed=seed, profile=profile, policy_name="degraded"
            )["fingerprint"]
            digest = hashlib.sha256(
                json.dumps(fingerprint, sort_keys=True).encode()
            ).hexdigest()
            assert digest == self.PINNED[profile, seed]

    def test_jobs_do_not_change_the_verdict(self):
        kwargs = dict(seeds=(0, 1), profiles=("mixed",), policies=("default",))
        serial = run_chaos_sweep(jobs=1, **kwargs)
        sharded = run_chaos_sweep(jobs=2, **kwargs)
        serial.pop("parallel_used")
        sharded.pop("parallel_used")
        assert serial == sharded

    def test_same_seed_same_case(self):
        a = run_chaos_case(seed=3, profile="mixed")
        b = run_chaos_case(seed=3, profile="mixed")
        assert a["fingerprint"] == b["fingerprint"]


class TestChaosCleanliness:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_every_profile_runs_clean(self, profile):
        for seed in (0, 1):
            case = run_chaos_case(
                seed=seed, profile=profile, policy_name="degraded"
            )
            assert case["ok"], case
            assert case["violations"] == 0
            assert case["fingerprint"]["converged"]
            assert case["counts"]["accounted"]

    def test_a_degraded_sweep_of_every_profile_has_no_violations(self):
        verdict = run_chaos_sweep(
            seeds=(0, 1, 2, 3),
            profiles=PROFILES,
            policies=("degraded",),
            transactions=16,
            n_sites=5,
        )
        assert verdict["ok"], verdict
        for profile, policies in verdict["profiles"].items():
            assert policies["degraded"]["violations"] == 0, profile

    def test_no_silent_loss_accounting(self):
        case = run_chaos_case(seed=1, profile="mixed", policy_name="default")
        counts = case["counts"]
        assert counts["attempted"] == (
            counts["succeeded"]
            + counts["degraded"]
            + counts["unavailable"]
            + counts["conflict"]
            + counts["aborted_ops"]
        )
        fp = case["fingerprint"]
        assert fp["commits"] + fp["aborts"] >= counts["transactions"]

    def test_sweep_verdict_shape(self):
        verdict = run_chaos_sweep(
            seeds=(0,), profiles=("crash",), policies=("no-retry", "degraded")
        )
        assert verdict["ok"]
        row = verdict["profiles"]["crash"]["degraded"]
        for key in (
            "runs",
            "attempted",
            "succeeded",
            "degraded",
            "unavailable",
            "aborted_ops",
            "violations",
            "recovery_repaired_p50",
            "recovery_repaired_p95",
        ):
            assert key in row
        json.dumps(verdict)  # the verdict table must be JSON-clean


class TestResilienceIsInert:
    def test_enabling_resilience_does_not_perturb_a_clean_run(self):
        """No faults -> byte-identical history with and without the layer."""
        from repro.sim.workload import OperationMix, WorkloadGenerator

        prints = {}
        for enabled in (False, True):
            cluster = _queue_cluster(n_sites=3, seed=4)
            if enabled:
                cluster.enable_resilience()
            queue = cluster.tm.object("queue")
            generator = WorkloadGenerator(
                cluster.sim,
                cluster.tm,
                cluster.frontends,
                OperationMix.uniform("queue", queue.datatype.invocations()),
                ops_per_transaction=2,
                concurrency=3,
            )
            metrics = generator.run(20)
            prints[enabled] = {
                "history": str(queue.recorder.to_behavioral_history()),
                "outcomes": dict(metrics.outcomes),
                "messages": cluster.network.messages_sent,
            }
        assert prints[False] == prints[True]


class TestChaosCLI:
    def test_chaos_smoke_exits_zero(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "verdict.json"
        code = main(
            [
                "chaos",
                "--seeds",
                "1",
                "--profile",
                "crash",
                "--policies",
                "default",
                "--format",
                "json",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        verdict = json.loads(out.read_text())
        assert verdict["ok"] and "crash" in verdict["profiles"]

    def test_chaos_table_renders(self, capsys):
        from repro.__main__ import main

        code = main(
            [
                "chaos",
                "--seeds",
                "1",
                "--profile",
                "partition",
                "--policies",
                "no-retry",
                "--format",
                "table",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "partition" in text and "PASS" in text

    def test_unknown_policy_is_an_error(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["chaos", "--seeds", "1", "--policies", "nope"])
