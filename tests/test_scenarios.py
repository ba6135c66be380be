"""Scenario-framework tests: samplers, specs, compilation, byte-identity.

The load-bearing guarantees:

* the compiled ``default`` scenario is **byte-identical** to the legacy
  workload — same cluster build, same RNG draw sequence, same
  fingerprint — so nine PRs of seeded baselines survive the framework;
* every scenario's fingerprint is identical across ``jobs`` 1/N (and
  pinned per scenario × mechanism cell by ``tests/test_golden_runs.py``);
* the seeded samplers are deterministic per seed and statistically
  sane (zipf concentrates traffic on hot keys, Poisson gaps average
  ``1/rate``);
* the open-loop arrival gate admits on the driver's pacing clock and
  the pluggable ``init()``/``run()`` workload contract actually drives
  transactions.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.resilience.chaos import PROFILES
from repro.resilience.policy import _mix_key
from tests.helpers import cluster_of, hybrid_queue
from repro.scenarios import (
    MECHANISMS,
    SCENARIOS,
    ArrivalSpec,
    MixSpec,
    ScenarioSpec,
    SkewSpec,
    build_scenario,
    bursty_arrivals,
    compile_arrivals,
    compile_mix,
    hot_key_ranks,
    poisson_arrivals,
    run_scenario,
    zipf_weights,
)
from repro.replication.keyspace import demo_keyspace
from repro.scenarios.runner import scenario_trial
from repro.sim.trials import run_trials

pytestmark = pytest.mark.scenarios


# -- samplers ----------------------------------------------------------------


class TestZipfWeights:
    def test_s_zero_is_exactly_uniform(self):
        assert zipf_weights(5, 0.0) == (1.0,) * 5

    def test_weights_decrease_with_rank(self):
        weights = zipf_weights(8, 1.2)
        assert all(a > b for a, b in zip(weights, weights[1:]))
        assert weights[0] == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(4, -0.5)


class TestHotKeyRanks:
    NAMES = [f"object-{i}" for i in range(8)]

    def test_deterministic_per_seed(self):
        assert hot_key_ranks(self.NAMES, 0) == hot_key_ranks(self.NAMES, 0)

    def test_is_a_permutation(self):
        ranks = hot_key_ranks(self.NAMES, 3)
        assert sorted(ranks) == sorted(self.NAMES)
        assert sorted(ranks.values()) == list(range(len(self.NAMES)))

    def test_different_seeds_move_the_hot_set(self):
        orderings = {
            tuple(sorted(hot_key_ranks(self.NAMES, seed).items()))
            for seed in range(6)
        }
        assert len(orderings) > 1

    def test_input_order_is_irrelevant(self):
        shuffled = list(reversed(self.NAMES))
        assert hot_key_ranks(self.NAMES, 1) == hot_key_ranks(shuffled, 1)


class TestPoissonArrivals:
    def test_deterministic_per_seed(self):
        assert poisson_arrivals(1.0, 50, 7) == poisson_arrivals(1.0, 50, 7)
        assert poisson_arrivals(1.0, 50, 7) != poisson_arrivals(1.0, 50, 8)

    def test_non_decreasing_schedule_of_length_n(self):
        schedule = poisson_arrivals(2.0, 100, 0)
        assert len(schedule) == 100
        assert all(a <= b for a, b in zip(schedule, schedule[1:]))
        assert schedule[0] > 0

    def test_mean_gap_tracks_the_rate(self):
        schedule = poisson_arrivals(4.0, 2000, 0)
        mean_gap = schedule[-1] / len(schedule)
        assert 0.8 / 4.0 < mean_gap < 1.25 / 4.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 10, 0)
        with pytest.raises(ValueError):
            poisson_arrivals(1.0, -1, 0)


class TestBurstyArrivals:
    def test_deterministic_and_non_decreasing(self):
        a = bursty_arrivals(0.5, 10.0, 4, 8, 64, 3)
        assert a == bursty_arrivals(0.5, 10.0, 4, 8, 64, 3)
        assert all(x <= y for x, y in zip(a, a[1:]))

    def test_burst_gaps_are_shorter_than_calm_gaps(self):
        schedule = bursty_arrivals(0.5, 10.0, 4, 8, 400, 0)
        gaps = [b - a for a, b in zip((0.0,) + schedule, schedule)]
        burst = [g for i, g in enumerate(gaps) if i % 8 < 4]
        calm = [g for i, g in enumerate(gaps) if i % 8 >= 4]
        assert sum(burst) / len(burst) < sum(calm) / len(calm) / 4

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            bursty_arrivals(0.5, 10.0, 8, 8, 10, 0)  # burst fills the cycle
        with pytest.raises(ValueError):
            bursty_arrivals(-1.0, 10.0, 2, 8, 10, 0)


# -- specs and catalog -------------------------------------------------------


class TestSpecs:
    def test_mix_spec_rejects_non_positive_weights(self):
        with pytest.raises(ValueError):
            MixSpec(read_weight=0.0)
        with pytest.raises(ValueError, match="must not be negative"):
            MixSpec(op_weights=(("Enq", -1.0),))
        assert MixSpec(op_weights=(("Enq", 0.0),)).multiplier("Enq", False) == 0.0

    def test_mix_multiplier_composes_class_and_op_weights(self):
        mix = MixSpec(read_weight=9.0, write_weight=2.0, op_weights=(("Enq", 3.0),))
        assert mix.multiplier("Read", read_only=True) == 9.0
        assert mix.multiplier("Enq", read_only=False) == 6.0
        assert mix.multiplier("Deq", read_only=False) == 2.0

    def test_arrival_spec_validation(self):
        with pytest.raises(ValueError):
            ArrivalSpec(kind="open")
        with pytest.raises(ValueError):
            ArrivalSpec(kind="closed", rate=1.0)
        with pytest.raises(ValueError):
            ArrivalSpec.poisson(rate=0.0)
        with pytest.raises(ValueError):
            ArrivalSpec(kind="bursty", rate=1.0)  # missing burst shape

    def test_scenario_spec_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", doc_ref="no-anchor", description="d")
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="x",
                doc_ref="docs/SCENARIOS.md#x",
                description="d",
                skew=SkewSpec.zipf(1.0),
                objects=1,  # skew needs >= 2 objects
            )

    def test_specs_are_frozen(self):
        spec = SCENARIOS["default"]
        with pytest.raises(AttributeError):
            spec.concurrency = 99

    def test_catalog_keys_match_names(self):
        assert all(spec.name == name for name, spec in SCENARIOS.items())
        assert set(SCENARIOS) == {
            "default",
            "read-dominant",
            "write-heavy",
            "hot-key-contention",
            "bursty-flash-crowd",
            "long-transaction",
        }


# -- compilation -------------------------------------------------------------


class TestCompilation:
    def test_default_mix_compiles_to_legacy_uniform(self):
        from repro.replication.keyspace import ObjectSpec
        from repro.sim.workload import OperationMix
        from repro.types import Queue

        queue = Queue()
        compiled = compile_mix(
            (ObjectSpec("queue", queue),), SCENARIOS["default"], seed=0
        )
        assert compiled == OperationMix.uniform("queue", queue.invocations())

    def test_a_zero_op_weight_drops_the_invocation(self):
        from repro.replication.keyspace import ObjectSpec
        from repro.sim.workload import OperationMix
        from repro.types import PROM

        never_sealed = ScenarioSpec(
            name="never-sealed",
            doc_ref="docs/SCENARIOS.md#x",
            description="d",
            mix=MixSpec(
                read_weight=10.0, write_weight=5.0, op_weights=(("Seal", 0.0),)
            ),
        )
        prom = PROM()
        compiled = compile_mix((ObjectSpec("prom", prom),), never_sealed, seed=0)
        assert compiled == OperationMix.weighted(
            [
                ("prom", inv, 10.0 if inv.op == "Read" else 5.0)
                for inv in prom.invocations()
                if inv.op != "Seal"
            ]
        )

    def test_a_mix_with_nothing_to_draw_raises(self):
        # OperationMix.sample would fall back to the last choice, so an
        # all-zero mix must fail at build time instead.
        silent = ScenarioSpec(
            name="silent",
            doc_ref="docs/SCENARIOS.md#x",
            description="d",
            mix=MixSpec(op_weights=(("Enq", 0.0), ("Deq", 0.0))),
        )
        with pytest.raises(ValueError, match="weighs every operation 0"):
            build_scenario(silent)

    def test_the_chaos_pair_compiles_to_its_hand_built_mix(self):
        from repro.replication.keyspace import chaos_keyspace
        from repro.resilience.chaos import CLASSIC
        from repro.sim.workload import OperationMix

        register, queue = (obj.datatype for obj in chaos_keyspace(5).objects)
        expected = OperationMix.weighted(
            [
                ("register", inv, 3.0 if inv.op == "Read" else 1.0)
                for inv in register.invocations()
            ]
            + [("queue", inv, 1.0) for inv in queue.invocations()]
        )
        assert compile_mix(chaos_keyspace(5).objects, CLASSIC, seed=0) == expected

    def test_zipf_mix_concentrates_draws_on_the_hot_key(self):
        spec = demo_keyspace(8, 5, placement="all", scheme="hybrid")
        scenario = SCENARIOS["hot-key-contention"]
        mix = compile_mix(spec.objects, scenario, seed=0)
        ranks = hot_key_ranks([o.name for o in spec.objects], 0)
        hottest = next(n for n, r in ranks.items() if r == 0)
        coldest = next(n for n, r in ranks.items() if r == len(ranks) - 1)
        rng = random.Random(_mix_key(0, (0xDEAD, 1)))
        draws = [mix.sample(rng)[0] for _ in range(4000)]
        assert draws.count(hottest) > 2.5 * draws.count(coldest)

    def test_closed_loop_compiles_to_no_schedule(self):
        assert compile_arrivals(SCENARIOS["default"], 12, 0) is None

    def test_open_loop_schedules_cover_the_run(self):
        schedule = compile_arrivals(SCENARIOS["long-transaction"], 16, 0)
        assert len(schedule) == 16

    def test_scenario_keyspace_uses_one_scheme_everywhere(self):
        for mechanism, scheme in MECHANISMS.items():
            cluster, _generator, names = build_scenario(
                "write-heavy", mechanism=mechanism
            )
            assert {cluster.tm.object(n).cc.name for n in names} == {scheme}
            assert {n.split("-")[0] for n in names} == {"queue", "register", "counter"}
            assert not cluster.placement.is_partial

    def test_unknown_mechanism_and_scenario_are_rejected(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            run_scenario("default", mechanism="optimistic")
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("no-such-scenario")


# -- byte-identity -----------------------------------------------------------


def _legacy_fingerprint(seed: int, transactions: int) -> dict:
    """The classic single-queue workload's fingerprint, built by hand."""
    from repro.sim.workload import OperationMix, WorkloadGenerator

    queue = hybrid_queue()
    cluster = cluster_of(3, queue, seed=seed)
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        OperationMix.uniform("queue", queue.datatype.invocations()),
        ops_per_transaction=3,
        concurrency=4,
    )
    metrics = generator.run(transactions)
    return {
        "outcomes": {
            f"{op}/{o}": c for (op, o), c in sorted(metrics.outcomes.items())
        },
        "histories": {
            "queue": str(cluster.tm.object("queue").recorder.to_behavioral_history())
        },
        "messages_sent": cluster.network.messages_sent,
        "messages_dropped": cluster.network.messages_dropped,
        "commits": metrics.committed_transactions,
        "aborts": metrics.aborted_transactions,
    }


class TestByteIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_default_scenario_matches_legacy_fingerprint(self, seed):
        legacy = _legacy_fingerprint(seed, 12)
        verdict = run_scenario("default", seed=seed)
        compiled = {key: verdict["fingerprint"][key] for key in legacy}
        assert compiled == legacy
        assert verdict["ok"]

    def test_fingerprints_identical_across_job_counts(self):
        trial = partial(
            scenario_trial, scenario="write-heavy", mechanism="hybrid"
        )
        serial, used_serial = run_trials(trial, [0, 1, 2, 3], jobs=1)
        sharded, _used = run_trials(trial, [0, 1, 2, 3], jobs=2)
        assert used_serial is False
        assert [v["fingerprint"] for v in serial] == [
            v["fingerprint"] for v in sharded
        ]

    def test_chaos_crossing_is_deterministic_and_clean(self):
        first = run_scenario(
            "hot-key-contention", seed=2, mechanism="multiversion", profile="mixed"
        )
        second = run_scenario(
            "hot-key-contention", seed=2, mechanism="multiversion", profile="mixed"
        )
        assert first["fingerprint"] == second["fingerprint"]
        assert first["ok"] and first["violations"] == 0
        assert first["fingerprint"]["converged"]


# -- the crossing: catalog x mechanisms x chaos profiles -----------------------


@pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_every_cell_of_the_crossing_is_clean(scenario, mechanism):
    """Each profile's cell audits green and converges; a faulted one saw faults."""
    for profile in ("none", *PROFILES):
        verdict = run_scenario(scenario, mechanism=mechanism, profile=profile)
        cell = (scenario, mechanism, profile)
        fingerprint = verdict["fingerprint"]
        assert verdict["ok"] and verdict["violations"] == 0, cell
        assert fingerprint["converged"], cell
        if profile != "none":
            assert fingerprint["faults_applied"] > 0 or verdict["transactions"] < 8, cell


# -- the open loop and the workload contract ---------------------------------


class TestOpenLoop:
    def test_arrival_schedule_shorter_than_run_is_rejected(self):
        from repro.sim.workload import OperationMix, WorkloadGenerator

        queue = hybrid_queue()
        cluster = cluster_of(3, queue, seed=0)
        generator = WorkloadGenerator(
            cluster.sim,
            cluster.tm,
            cluster.frontends,
            OperationMix.uniform("queue", queue.datatype.invocations()),
            arrivals=(0.5, 1.0),
        )
        with pytest.raises(ValueError, match="arrival schedule"):
            generator.run(4)

    def test_open_loop_run_accounts_for_every_transaction(self):
        verdict = run_scenario("long-transaction", seed=0)
        assert verdict["counts"]["accounted"]
        assert verdict["fingerprint"]["commits"] + verdict["fingerprint"][
            "aborts"
        ] >= verdict["transactions"]

    def test_widely_spaced_arrivals_advance_the_sim_clock(self):
        # One transaction per 50 simulated seconds: the driver must jump
        # its pacing clock (and the kernel clock with it) across the idle
        # gaps instead of spinning.
        spec = ScenarioSpec(
            name="trickle",
            doc_ref="docs/SCENARIOS.md#default",
            description="test-only trickle",
            arrival=ArrivalSpec.poisson(rate=0.02),
            transactions=4,
        )
        verdict = run_scenario(spec, seed=0)
        assert verdict["ok"]
        assert verdict["timing"]["sim_time"] > 50.0


class TestWorkloadContract:
    def test_transaction_bodies_are_inline_mix_draws(self):
        """A new transaction draws its front-end, then exactly
        ``ops_per_transaction`` samples of the mix from the simulator's
        RNG: the consumption every seeded fingerprint is pinned on."""
        cluster, generator, _names = build_scenario("default", seed=0)
        shadow = random.Random()
        shadow.setstate(cluster.sim.rng.getstate())
        shadow.randrange(len(cluster.frontends))
        inline = [generator.mix.sample(shadow) for _ in range(3)]
        assert generator.ops_per_transaction == 3
        assert generator._new_script().operations == inline
