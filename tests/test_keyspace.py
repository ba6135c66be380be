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
from repro.quorum.constraints import violated_pairs
from repro.quorum.coterie import SubsetThresholdCoterie, majority
from repro.quorum.search import ThresholdChoice
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import (
    KeyspaceSpec,
    ObjectSpec,
    Placement,
    PlacementRule,
    Router,
    demo_keyspace,
    soak_keyspace,
)
from repro.resilience.chaos import run_chaos_case, run_chaos_sweep
from repro.scenarios import SCENARIOS, build_scenario, compile_mix
from repro.sim.workload import WorkloadGenerator
from repro.types import Queue, Register

pytestmark = pytest.mark.keyspace

SCHEMES = ("static", "hybrid", "dynamic")


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
        # can 2 + 1; a zero threshold meets nothing.  The relation is the
        # queue's default: before it existed such a queue could not be
        # built at all, so refusing it refuses nothing that built before.
        spec = ObjectSpec("q", Queue(), quorums=quorums)
        with pytest.raises(SpecificationError, match=r"'q'.* ≥ "):
            spec.compile_assignment((0, 1, 2), 3)

    def test_quorums_meeting_the_relation_compile(self):
        for quorums in ("majority", (1, 3), (3, 1), (2, 2)):
            spec = ObjectSpec("q", Queue(), quorums=quorums)
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


#: Theorem 11 at run scale: two three-site layouts, each valid under one
#: mechanism's minimal relation and not the other's.
REGISTER_READ_2_WRITE_1 = ThresholdChoice(
    3,
    initial=(("Read", 2), ("Write", 1)),
    final=((("Read", "Ok"), 3), (("Write", "Ok"), 2)),
)
QUEUE_ENQ_1_DEQ_3 = ThresholdChoice(
    3,
    initial=(("Deq", 3), ("Enq", 1)),
    final=((("Deq", "Empty"), 3), (("Deq", "Ok"), 1), (("Enq", "Ok"), 3)),
)


class TestTheorem11AtRunScale:
    """The relation, not the mechanism's name, decides which layouts an
    object may run: a Register's dynamic relation adds ``Write ≥
    Write;Ok`` to the static one, and a Queue's dynamic relation trades
    static's ``Enq ≥ Deq;Ok`` for ``Enq ≥ Enq;Ok``."""

    @pytest.mark.parametrize(
        "datatype, choice, refused",
        [
            (Register(), REGISTER_READ_2_WRITE_1, {"dynamic": "Write ≥ Write;Ok"}),
            (
                Queue(),
                QUEUE_ENQ_1_DEQ_3,
                {"static": "Enq ≥ Deq;Ok", "hybrid": "Enq ≥ Deq;Ok"},
            ),
        ],
        ids=["register", "queue"],
    )
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_a_layout_compiles_exactly_where_its_relation_allows(
        self, scheme, datatype, choice, refused
    ):
        assignment = choice.to_assignment()
        spec = KeyspaceSpec(
            3, (ObjectSpec("x", datatype, scheme, assignment=assignment),)
        )
        if scheme in refused:
            with pytest.raises(
                SpecificationError, match=f"'x'.* leave {refused[scheme]} without"
            ):
                build_keyspace(spec)
            return
        cluster = build_keyspace(spec)
        obj = cluster.tm.object("x")
        assert obj.assignment is assignment
        assert violated_pairs(assignment, obj.relation) == ()


class TestKeyspaceBuilders:
    @pytest.mark.parametrize("build", [demo_keyspace, soak_keyspace])
    @pytest.mark.parametrize("n_objects", [0, -2])
    def test_an_empty_keyspace_is_refused(self, build, n_objects):
        with pytest.raises(SpecificationError, match="at least one object"):
            build(n_objects, 5)

    @pytest.mark.parametrize("build", [demo_keyspace, soak_keyspace])
    def test_an_unknown_placement_is_refused(self, build):
        with pytest.raises(SpecificationError, match="'grid'"):
            build(3, 5, placement="grid")

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_one_scheme_for_every_object(self, scheme):
        spec = demo_keyspace(6, 5, scheme=scheme)
        assert [obj.name for obj in spec.objects[:3]] == [
            "queue-0", "register-1", "counter-2",
        ]
        assert {obj.scheme for obj in spec.objects} == {scheme}
        assert {obj.placement for obj in spec.objects} == {PlacementRule.ring(3)}
        assert {obj.scheme for obj in demo_keyspace(6, 5).objects} == {"hybrid"}
        with pytest.raises(ValueError, match="unknown mechanism None"):
            build_scenario(SCENARIOS["default"], mechanism=None)


#: The witness: A begins before B; B writes the register, enqueues 1 and
#: commits; then A reads the register and dequeues.
WITNESS = {
    "A": (("register", Invocation("Read")), ("queue", Invocation("Deq"))),
    "B": (
        ("register", Invocation("Write", ("b",))),
        ("queue", Invocation("Enq", (1,))),
    ),
}


def serial_responses(datatypes, order):
    """A's responses when the witness's transactions run one at a time."""
    states = {name: datatype.initial_state() for name, datatype in datatypes.items()}
    responses = []
    for txn in order:
        for name, invocation in WITNESS[txn]:
            [(response, states[name])] = datatypes[name].apply(
                states[name], invocation
            )
            if txn == "A":
                responses.append(response)
    return tuple(responses)


class TestOneOrderPerDomain:
    """Weihl's locality result needs one serialization order per
    transaction domain.  A static (begin-order) object beside a hybrid or
    dynamic (commit-order) one commits the witness, which no serial order
    explains: A reads the register's initial ``'0'`` yet dequeues B's 1,
    or reads B's ``'b'`` yet finds the queue empty.  So such a domain is
    refused; every other pair commits the witness as one serial order.
    """

    @pytest.mark.parametrize("register_scheme", SCHEMES)
    @pytest.mark.parametrize("queue_scheme", SCHEMES)
    def test_the_witness_runs_serially_or_is_refused(
        self, queue_scheme, register_scheme
    ):
        datatypes = {"queue": Queue(), "register": Register(("a", "b"))}
        spec = KeyspaceSpec(
            5,
            (
                ObjectSpec("queue", datatypes["queue"], queue_scheme),
                ObjectSpec("register", datatypes["register"], register_scheme),
            ),
        )
        if queue_scheme != register_scheme and "static" in (
            queue_scheme, register_scheme
        ):
            with pytest.raises(SpecificationError) as refusal:
                build_keyspace(spec, seed=0)
            assert "'queue'" in str(refusal.value)
            assert "'register'" in str(refusal.value)
            return
        cluster = build_keyspace(spec, seed=0, tracer=Tracer())
        auditor = Auditor(cluster, mode="deep")
        frontend, tm = cluster.frontends[0], cluster.tm
        a, b = tm.begin(0), tm.begin(0)
        for name, invocation in WITNESS["B"]:
            frontend.execute(b, name, invocation)
        tm.commit(b)
        seen = tuple(frontend.execute(a, name, inv) for name, inv in WITNESS["A"])
        tm.commit(a)
        assert tm.commits == 2
        assert auditor.finish().ok
        expected = "AB" if queue_scheme == "static" else "BA"
        assert seen == serial_responses(datatypes, expected)


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
            compile_mix(spec.objects, SCENARIOS["default"], 0),
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
            cluster.sim,
            cluster.tm,
            cluster.frontends,
            compile_mix(spec.objects, SCENARIOS["default"], 0),
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
        # same fingerprint byte for byte; re-taken when every object of
        # the keyspace became hybrid.
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
            "fda22c9765fc4a0ac32f5c2edb0d0f081a85bda80629a22df9f55d99b788e3c5"
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
