"""Multi-object sharded keyspaces: placement, routing, partial replication.

The keyspace redesign (``docs/KEYSPACE.md``) is pinned from four sides:

* **placement math** — :class:`PlacementRule` compilation is
  deterministic and validated, :class:`SubsetThresholdCoterie` keeps
  quorums inside the replica set while living in the global site-id
  universe;
* **routing** — a :class:`Router` over full replication visits every
  site starting at the front-end's own, and over partial replication
  never leaves the replica set;
* **the running system** — an eight-object keyspace on five sites runs
  a cross-object transactional workload under the auditor with zero
  violations and no site storing a shard it was never assigned, and
  the seeded ``shard-misroute`` mutation is provably flagged;
* **determinism** — chaos fingerprints for a three-object ring keyspace
  are pinned and byte-identical across worker counts.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import repro.__main__ as cli
from repro.errors import SpecificationError, TransactionError
from repro.histories.events import Invocation
from repro.obs.audit import Auditor
from repro.obs.mutations import MUTATIONS
from repro.obs.trace import Tracer
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.coterie import SubsetThresholdCoterie, majority
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import (
    KeyspaceSpec,
    ObjectSpec,
    Placement,
    PlacementRule,
    Router,
    demo_keyspace,
    demo_mix,
)
from repro.resilience.chaos import run_chaos_case, run_chaos_sweep
from repro.sim.workload import WorkloadGenerator
from repro.dependency import known
from repro.types import Queue, Register

pytestmark = pytest.mark.keyspace


class TestPlacementRules:
    def test_all_places_everywhere(self):
        assert PlacementRule.all().place("x", 5) == (0, 1, 2, 3, 4)

    def test_ring_is_deterministic_and_sized(self):
        rule = PlacementRule.ring(3)
        first = rule.place("queue-0", 5)
        assert first == rule.place("queue-0", 5)
        assert len(first) == 3
        assert all(0 <= site < 5 for site in first)

    def test_ring_spreads_distinct_names(self):
        rule = PlacementRule.ring(2)
        starts = {rule.place(f"obj-{i}", 7) for i in range(20)}
        assert len(starts) > 1  # crc32 spreads names over the ring

    def test_ring_factor_clamped_to_cluster(self):
        assert PlacementRule.ring(9).place("x", 3) == (0, 1, 2)

    def test_explicit_sites(self):
        assert PlacementRule.at((4, 1, 1)).place("x", 5) == (1, 4)

    def test_invalid_rules_raise(self):
        with pytest.raises(SpecificationError):
            PlacementRule.ring(0)
        with pytest.raises(SpecificationError):
            PlacementRule.at(())
        with pytest.raises(SpecificationError):
            PlacementRule.at((0, 7)).place("x", 5)


class TestSubsetCoterie:
    def test_quorums_stay_inside_members(self):
        coterie = SubsetThresholdCoterie(5, (1, 2, 4), 2)
        for quorum in coterie.quorums():
            assert quorum <= frozenset({1, 2, 4})
            assert len(quorum) == 2

    def test_has_quorum_counts_only_members(self):
        coterie = SubsetThresholdCoterie(5, (1, 2, 4), 2)
        assert coterie.has_quorum({1, 4})
        assert not coterie.has_quorum({0, 3, 1})

    def test_intersects_majority_pair_within_members(self):
        a = SubsetThresholdCoterie(5, (0, 1, 2), 2)
        assert a.intersects(a)
        # 2-of-{0,1,2} against global majority 3-of-5: the majority can
        # take both non-members plus one member, leaving a disjoint pair.
        assert not a.intersects(majority(5))

    def test_placement_and_shards(self):
        placement = Placement(4)
        placement.add("a", (0, 1))
        placement.add("b", (2, 3))
        assert placement.replicas("a") == (0, 1)
        assert placement.shards_of(0) == frozenset({"a"})
        assert placement.holds(3, "b") and not placement.holds(3, "a")
        assert placement.is_partial
        with pytest.raises(SpecificationError):
            placement.add("a", (0,))
        with pytest.raises(SpecificationError):
            placement.replicas("missing")


class TestRouterCompat:
    def test_full_replication_routes_from_own_site(self):
        """``PlacementRule.all()`` (the default) routes through every
        site, locality first, then round-robin."""
        spec = KeyspaceSpec(4, (ObjectSpec("register", Register(), "static"),))
        placement = spec.compile()
        assert not placement.is_partial
        assert placement.replicas("register") == (0, 1, 2, 3)
        router = Router(placement)
        for site in range(4):
            rotation = tuple((site + offset) % 4 for offset in range(4))
            assert router.route(site, "register") == rotation

    def test_partial_route_stays_in_replica_set(self):
        placement = Placement(6)
        placement.add("x", (1, 3, 5))
        router = Router(placement)
        assert router.route(3, "x") == (3, 5, 1)  # member starts locally
        assert router.route(0, "x") == (1, 3, 5)  # non-member: rotation
        for site in range(6):
            assert set(router.route(site, "x")) == {1, 3, 5}


class TestKeyspaceSpec:
    def test_duplicate_names_rejected(self):
        spec = ObjectSpec("x", Register(), scheme="static")
        with pytest.raises(SpecificationError):
            KeyspaceSpec(3, (spec, spec))

    def test_explicit_assignment_must_be_genuine(self):
        # A majority-of-all-sites assignment reaches outside {0, 1}.
        register = Register()
        stray = QuorumAssignment(
            4,
            {
                op: OperationQuorums(initial=majority(4), final=majority(4))
                for op in register.operations()
            },
        )
        spec = KeyspaceSpec(
            4,
            (
                ObjectSpec(
                    "x",
                    register,
                    scheme="static",
                    placement=PlacementRule.at((0, 1)),
                    assignment=stray,
                ),
            ),
        )
        with pytest.raises(SpecificationError):
            build_keyspace(spec)

    @pytest.mark.parametrize("quorums", [(1, 1), (2, 1), (0, 0)])
    def test_quorums_must_meet_the_declared_relation(self, quorums):
        # Initial 1 + final 1 of 3 replicas can miss each other, and so
        # can 2 + 1; a zero threshold meets nothing.
        queue = Queue()
        relation = known.ground(queue, known.QUEUE_STATIC, 5)
        spec = ObjectSpec("q", queue, quorums=quorums, relation=relation)
        with pytest.raises(SpecificationError, match=r"'q'.* ≥ "):
            spec.compile_assignment((0, 1, 2), 3)

    def test_quorums_meeting_the_relation_compile(self):
        queue = Queue()
        relation = known.ground(queue, known.QUEUE_STATIC, 5)
        for quorums in ("majority", (1, 3), (3, 1), (2, 2)):
            spec = ObjectSpec("q", queue, quorums=quorums, relation=relation)
            spec.compile_assignment((0, 1, 2), 3)

    def test_malformed_quorums_name_the_accepted_forms(self):
        spec = ObjectSpec("q", Register(), "static", quorums="majorty")
        with pytest.raises(SpecificationError, match="'majority' nor an"):
            spec.compile_assignment((0, 1, 2), 3)

    def test_compiled_quorums_stay_inside_replicas(self):
        spec = demo_keyspace(8, 5, placement="ring")
        placement = spec.compile()
        for obj_spec in spec.objects:
            replicas = frozenset(placement.replicas(obj_spec.name))
            assignment = obj_spec.compile_assignment(tuple(replicas), 5)
            for coterie in (
                *assignment.initial_coteries(),
                *assignment.final_coteries(),
            ):
                for quorum in coterie.quorums():
                    assert quorum <= replicas


def build_demo(n_objects=8, n_sites=5, seed=0):
    spec = demo_keyspace(n_objects, n_sites, placement="ring")
    tracer = Tracer()
    cluster = build_keyspace(spec, seed=seed, tracer=tracer)
    return spec, cluster


class TestRunningKeyspace:
    def test_eight_objects_five_sites_audits_green(self):
        spec, cluster = build_demo()
        assert cluster.placement.is_partial
        auditor = Auditor(cluster)
        generator = WorkloadGenerator(
            cluster.sim,
            cluster.tm,
            cluster.frontends,
            demo_mix(spec),
            ops_per_transaction=3,
            concurrency=4,
        )
        generator.run(20)
        report = auditor.finish()
        assert report.ok, report.render()
        assert "genuine-partial-replication" in report.monitors
        assert report.violations == ()
        # Genuine partial replication holds in storage too: no site
        # materialized a shard it was never assigned.
        for repo in cluster.repositories:
            assert repo.shards is not None
            assert set(repo.stored_objects()) <= repo.shards

    def test_transact_spans_objects_under_one_transaction(self):
        spec, cluster = build_demo(n_objects=3)
        frontend = cluster.frontends[0]
        commits_before = cluster.tm.commits
        responses = frontend.transact(
            [
                ("queue-0", Invocation("Enq", ("a",))),
                ("register-1", Invocation("Write", ("v",))),
                ("counter-2", Invocation("Inc")),
                ("queue-0", Invocation("Deq")),
            ]
        )
        assert [r.kind for r in responses] == ["Ok", "Ok", "Ok", "Ok"]
        assert responses[3].values == ("a",)
        assert cluster.tm.commits == commits_before + 1

    def test_transact_failure_aborts_whole_transaction(self):
        spec, cluster = build_demo(n_objects=2)
        frontend = cluster.frontends[0]
        aborts_before = cluster.tm.aborts
        with pytest.raises(TransactionError):
            frontend.transact(
                [
                    ("queue-0", Invocation("Enq", ("a",))),
                    ("no-such-object", Invocation("Read")),
                ]
            )
        assert cluster.tm.aborts == aborts_before + 1
        assert cluster.tm.commits == 0

    def test_misroute_mutation_is_flagged(self):
        spec, cluster = build_demo(n_objects=4)
        auditor = Auditor(cluster)
        MUTATIONS["shard-misroute"](cluster)
        generator = WorkloadGenerator(
            cluster.sim, cluster.tm, cluster.frontends, demo_mix(spec)
        )
        generator.run(8)
        report = auditor.finish()
        assert not report.ok
        assert "genuine-partial-replication" in report.violated_invariants

    def test_misroute_requires_partial_replication(self):
        spec = demo_keyspace(2, 3, placement="all")
        cluster = build_keyspace(spec, seed=0, tracer=Tracer())
        with pytest.raises(SpecificationError):
            MUTATIONS["shard-misroute"](cluster)


class TestKeyspaceCli:
    def test_audit_mutate_misroute_exits_nonzero(self, capsys):
        code = cli.main(
            ["audit", "--seed", "0", "--transactions", "6",
             "--mutate", "shard-misroute"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "genuine-partial-replication" in out

    def test_metrics_with_objects_and_placement(self, capsys):
        code = cli.main(
            ["metrics", "--seed", "0", "--sites", "5", "--transactions",
             "4", "--objects", "6", "--placement", "ring"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "commit rate" in out

    def test_clean_keyspace_audit_is_green(self, capsys):
        code = cli.main(
            ["audit", "--seed", "0", "--sites", "5", "--transactions",
             "8", "--objects", "8", "--placement", "ring"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "audit: OK" in out


class TestKeyspaceDeterminism:
    def test_fingerprint_matches_its_pin(self):
        # Taken where a one-request-at-a-time front-end produced the
        # same fingerprint byte for byte.
        case = run_chaos_case(
            seed=7, profile="mixed", transactions=10, objects=3, placement="ring"
        )
        assert case["ok"]
        fingerprint = case["fingerprint"]
        assert fingerprint["converged"] and fingerprint["audit_ok"]
        digest = hashlib.sha256(
            json.dumps(fingerprint, sort_keys=True).encode()
        ).hexdigest()
        assert digest == (
            "5b8b499cf3c6b4ba358404d608b36c215a03d847bf1856c0d4fc6d517dedde8c"
        )

    def test_sweep_identical_across_worker_counts(self):
        def sweep(jobs):
            verdict = run_chaos_sweep(
                seeds=(0, 1),
                profiles=("mixed",),
                policies=("default",),
                transactions=8,
                objects=3,
                placement="ring",
                jobs=jobs,
            )
            verdict.pop("parallel_used")
            return verdict

        assert sweep(1) == sweep(2)
