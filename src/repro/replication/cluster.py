"""Wiring for complete replicated systems.

:func:`build_keyspace` compiles a declarative
:class:`~repro.replication.keyspace.KeyspaceSpec` into the full stack —
simulator, network, repositories holding their shards, transaction
manager, routed front-ends — with one replicated object per declaration
under any of the three concurrency-control schemes.  It is the one way
to build a :class:`Cluster`: a single fully replicated object is a
one-object spec under the default ``PlacementRule.all()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cc.hybrid import HybridCC
from repro.cc.locking import DynamicLockingCC
from repro.cc.static_ts import StaticTimestampCC
from repro.dependency.relation import DependencyRelation
from repro.errors import SpecificationError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.quorum.assignment import QuorumAssignment
from repro.replication.frontend import FrontEnd
from repro.replication.keyspace import KeyspaceSpec, Placement, Router
from repro.replication.object import ReplicatedObject
from repro.replication.repository import Repository
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.spec.datatype import SerialDataType
from repro.spec.legality import LegalityOracle
from repro.txn.manager import TransactionManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cc.base import CCScheme
    from repro.resilience.policy import RetryPolicy
    from repro.resilience.recovery import ResilienceRuntime


@dataclass
class Cluster:
    """A complete replicated system: one network, many objects."""

    sim: Simulator
    network: Network
    repositories: tuple[Repository, ...]
    tm: TransactionManager
    frontends: tuple[FrontEnd, ...]
    #: Compiled object → replica-set maps.
    placement: Placement
    #: The request router front-ends resolve objects through.
    router: Router
    #: Shared span sink for every layer (the no-op tracer by default).
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)

    @property
    def n_sites(self) -> int:
        return len(self.repositories)

    #: The active resilience bundle, set by :meth:`enable_resilience`.
    resilience: "ResilienceRuntime | None" = None

    def enable_resilience(
        self, policy: "RetryPolicy | None" = None
    ) -> "ResilienceRuntime":
        """Switch the cluster onto the resilience layer; returns the runtime.

        Wires three things together (see ``docs/RESILIENCE.md``):

        * the :class:`~repro.resilience.policy.RetryPolicy` (``policy``,
          default ``POLICIES["default"]``) becomes the transaction
          manager's cluster-wide default, so every front-end's quorum
          failures turn into bounded, deadline-budgeted retries;
        * a :class:`~repro.resilience.recovery.RecoveryManager` attaches
          durable journals to every repository — crashes now wipe
          volatile state and recoveries replay it exactly;
        * a :class:`~repro.resilience.heal.PartitionHealDriver` fires an
          anti-entropy catch-up pass whenever a partition heals or a
          site recovers, recording catch-up latencies into a fresh
          :class:`~repro.obs.metrics.MetricsRegistry` as the
          ``resilience.recovery.latency`` histogram.

        Returns the :class:`~repro.resilience.recovery.ResilienceRuntime`
        bundling all three (also stored as ``cluster.resilience``).
        """
        from repro.obs.metrics import MetricsRegistry
        from repro.resilience.heal import PartitionHealDriver
        from repro.resilience.policy import POLICIES
        from repro.resilience.recovery import RecoveryManager, ResilienceRuntime

        policy = policy if policy is not None else POLICIES["default"]
        registry = MetricsRegistry()
        self.tm.retry_policy = policy
        # Registration order matters: replay must restore a recovered
        # repository before the heal driver tries to synchronize it.
        recovery = RecoveryManager(self.network, self.repositories)
        heal = PartitionHealDriver(self.network, self.repositories, registry)
        runtime = ResilienceRuntime(policy, recovery, heal, registry)
        self.resilience = runtime
        return runtime

    def reconfigure(
        self,
        name: str,
        new_assignment: QuorumAssignment,
        coordinator_site: int = 0,
    ) -> bool:
        """Switch object ``name`` to ``new_assignment`` online.

        The cluster-aware wrapper over
        :func:`repro.replication.reconfig.reconfigure`: the hand-over
        probes the object's replica set (from the placement), every
        front-end forgets its plan and caches for it at the switch,
        and the cluster tracer receives the ``reconfig.*`` spans plus
        the ``reconfig.switch`` point event the auditor's
        ``reconfig-epoch`` monitor listens for.  Returns ``True`` when
        the assignment actually changed (``False`` for a structural
        no-op).
        """
        from repro.replication.reconfig import reconfigure

        return reconfigure(
            self.network,
            self.repositories,
            self.tm.object(name),
            new_assignment,
            coordinator_site,
            placement=self.placement,
            frontends=self.frontends,
            tracer=self.tracer,
        )


def _make_scheme(
    datatype: SerialDataType,
    scheme: str,
    relation: DependencyRelation,
    oracle: LegalityOracle,
) -> "CCScheme":
    """Instantiate the named concurrency-control scheme; only hybrid's
    conflict table is built from the relation."""
    if scheme == "hybrid":
        return HybridCC(datatype, relation, oracle)
    if scheme == "static":
        return StaticTimestampCC(datatype, oracle)
    if scheme == "dynamic":
        return DynamicLockingCC(datatype, oracle)
    raise SpecificationError(f"unknown concurrency-control scheme {scheme!r}")


def build_keyspace(
    spec: KeyspaceSpec,
    *,
    seed: int = 0,
    latency: float = 1.0,
    drop_probability: float = 0.0,
    tracer: Tracer | None = None,
) -> Cluster:
    """Compile a keyspace spec into a running cluster.

    The spec's placement rules are compiled into a
    :class:`~repro.replication.keyspace.Placement`; each repository is
    assigned exactly its shards, each front-end gets the shared
    :class:`~repro.replication.keyspace.Router`, and one replicated
    object is registered per declaration (quorum assignments compiled
    over each object's replica set — see
    :meth:`~repro.replication.keyspace.ObjectSpec.compile_assignment`).

    Front-ends are colocated with repository sites (one each),
    reflecting the paper's observation that front-ends can be
    replicated to an arbitrary extent so availability is dominated by
    repositories.

    Pass a :class:`~repro.obs.trace.Tracer` to capture span trees
    (transaction → operation → quorum phase → RPC) over simulated time;
    it defaults to off.
    """
    n_sites = spec.n_sites
    placement = spec.compile()
    router = Router(placement)
    tracer = tracer if tracer is not None else NULL_TRACER
    sim = Simulator(seed=seed, tracer=tracer)
    tracer.bind_clock(sim)
    network = Network(
        sim,
        n_sites,
        latency=latency,
        drop_probability=drop_probability,
        tracer=tracer,
    )
    repositories = tuple(Repository(site) for site in range(n_sites))
    for repo in repositories:
        repo.assign_shards(placement.shards_of(repo.site))
    tm = TransactionManager(tracer=tracer)
    frontends = tuple(
        FrontEnd(site, network, repositories, tm, router, tracer=tracer)
        for site in range(n_sites)
    )
    for obj_spec in spec.objects:
        oracle = obj_spec.oracle or LegalityOracle(obj_spec.datatype)
        assignment = obj_spec.compile_assignment(
            placement.replicas(obj_spec.name), n_sites
        )
        relation = obj_spec.resolved_relation
        cc = _make_scheme(obj_spec.datatype, obj_spec.scheme, relation, oracle)
        tm.register(
            ReplicatedObject(
                obj_spec.name, obj_spec.datatype, assignment, relation, cc, oracle
            )
        )
    return Cluster(
        sim, network, repositories, tm, frontends, placement, router, tracer=tracer
    )
