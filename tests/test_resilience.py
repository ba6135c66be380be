"""Resilience layer: policies, recovery replay, heal-driven anti-entropy,
and the seeded chaos sweep's determinism and cleanliness guarantees."""

import hashlib
import json

import pytest

from repro.errors import DegradedOperation, SimulationError, UnavailableError
from repro.histories.events import Invocation
from repro.replication.antientropy import AntiEntropy
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
        policy = RetryPolicy(base_delay=2.0, multiplier=2.0, max_delay=10.0)
        for attempt in (1, 2, 3, 5):
            raw = min(2.0 * 2.0 ** (attempt - 1), 10.0)
            a = policy.backoff(attempt, key=(7, 3))
            b = policy.backoff(attempt, key=(7, 3))
            assert a == b  # pure function of (seed, key, attempt)
            assert raw * 0.75 <= a <= raw * 1.25

    def test_different_keys_desynchronize_jitter(self):
        policy = RetryPolicy()
        delays = {policy.backoff(1, key=(site, 1)) for site in range(8)}
        assert len(delays) > 1

    def test_zero_jitter_is_exact_exponential(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=3.0, jitter=0.0)
        assert [policy.backoff(a) for a in (1, 2, 3)] == [1.0, 3.0, 9.0]

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
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(txn_attempts=0)

    def test_deadline_remaining(self):
        sim = Simulator(seed=0)
        unbounded = Deadline(sim, None)
        assert not unbounded.expired
        assert unbounded.remaining() == float("inf")
        bounded = Deadline(sim, 5.0)
        sim.advance(2.0)
        assert bounded.remaining() == pytest.approx(3.0)


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
        fe.retry_policy = RetryPolicy(
            max_attempts=4, base_delay=5.0, jitter=0.0, op_budget=None
        )
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
        fe.retry_policy = RetryPolicy(
            max_attempts=10, base_delay=50.0, jitter=0.0, op_budget=60.0
        )
        cluster.network.crash(1)
        cluster.network.crash(2)
        txn = cluster.tm.begin(site=0)
        with pytest.raises(UnavailableError):
            fe.execute(txn, "queue", ENQ)
        # Retried at least once, but far fewer than max_attempts.
        assert 1 <= fe._retry_seq < 9

    def test_cluster_policy_applies_through_tm(self):
        cluster = _queue_cluster(n_sites=3)
        assert cluster.frontends[0].effective_policy() is None
        runtime = cluster.enable_resilience()
        assert cluster.frontends[0].effective_policy() is runtime.policy
        own = RetryPolicy.no_retry()
        cluster.frontends[0].retry_policy = own
        assert cluster.frontends[0].effective_policy() is own


class TestDegradedReads:
    def _crashed_register_cluster(self):
        cluster = _register_cluster()
        policy = POLICIES["degraded"].with_options(
            max_attempts=1, txn_attempts=1
        )
        cluster.tm.retry_policy = policy
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
        logs = dict(repo._logs)
        versions = dict(repo._versions)
        assert versions  # the workload really did write here
        cluster.network.crash(1)
        assert repo._logs == {} and repo._versions == {}  # volatile loss
        cluster.network.recover(1)
        assert dict(repo._logs) == logs
        assert dict(repo._versions) == versions

    def test_checkpoint_bounds_replay_and_stays_exact(self):
        cluster = _queue_cluster(n_sites=3)
        runtime = cluster.enable_resilience()
        self._run_some_ops(cluster)
        absorbed = runtime.recovery.checkpoint_all()
        assert absorbed > 0
        self._run_some_ops(cluster, count=2)
        repo = cluster.repositories[0]
        suffix = len(repo.journal.records)
        state = (dict(repo._logs), dict(repo._versions))
        cluster.network.crash(0)
        cluster.network.recover(0)
        assert (dict(repo._logs), dict(repo._versions)) == state
        assert repo.journal.replays == 1
        # Replay walked only the post-checkpoint suffix.
        assert suffix < absorbed + suffix

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
        summary = runtime.recovery_latency_summary()
        assert summary["count"] >= 1 and summary["p50"] > 0

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

    def test_detach_stops_reacting(self):
        cluster = _queue_cluster(n_sites=3)
        runtime = cluster.enable_resilience()
        runtime.heal.detach()
        cluster.network.crash(2)
        cluster.network.recover(2)
        assert runtime.heal.recoveries_handled == 0


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

    def test_remove_listener(self):
        cluster = cluster_of(3, seed=0)
        events = []
        listener = lambda kind, **info: events.append(kind)  # noqa: E731
        cluster.network.add_failure_listener(listener)
        cluster.network.crash(0)
        cluster.network.remove_failure_listener(listener)
        cluster.network.remove_failure_listener(listener)  # no-op twice
        cluster.network.recover(0)
        assert events == ["crash"]


class TestPartitionAwareAntiEntropy:
    def test_rounds_skip_unreachable_pairs_without_traffic(self):
        cluster = _queue_cluster(2)
        antientropy = AntiEntropy(
            cluster.network, cluster.repositories, interval=5.0
        )
        antientropy.install()
        cluster.network.partition((0,), (1,))
        cluster.sim.run(until=50.0)
        assert antientropy.rounds >= 9
        assert antientropy.exchanges == 0
        assert antientropy.skipped == antientropy.rounds
        # Partition-awareness means not even a probe crossed the cut.
        assert cluster.network.messages_sent == 0

    def test_sync_resumes_after_heal(self):
        cluster = _queue_cluster(2)
        antientropy = AntiEntropy(
            cluster.network, cluster.repositories, interval=5.0
        )
        antientropy.install()
        cluster.network.partition((0,), (1,))
        cluster.sim.run(until=25.0)
        assert antientropy.exchanges == 0
        cluster.network.heal()
        cluster.sim.run(until=50.0)
        assert antientropy.exchanges > 0
        assert cluster.network.messages_sent > 0


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
            "recovery_latency_p50",
            "recovery_latency_p95",
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
