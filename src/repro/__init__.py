"""repro — Comparing How Atomicity Mechanisms Support Replication.

A full reproduction of Herlihy's PODC 1985 analysis: an executable
theory kernel (histories, serial specifications, the three local
atomicity properties, atomic dependency relations and their minimal
characterizations) together with a working quorum-consensus replication
system (repositories, front-ends, timestamped logs, the three
concurrency-control schemes, a deterministic failure-injecting
simulator) and the quorum/availability mathematics connecting the two.

Typical entry points:

* theory: :mod:`repro.types`, :mod:`repro.atomicity`,
  :mod:`repro.dependency`, :mod:`repro.core.theorems`;
* quorum math: :mod:`repro.quorum`;
* the running system: :mod:`repro.replication.cluster`,
  :mod:`repro.sim.workload`;
* observability (tracing, metrics, auditing): :mod:`repro.obs`;
* resilience (retry policies, crash recovery, chaos sweeps):
  :mod:`repro.resilience`;
* declarative workload scenarios (catalog, samplers, audited runner):
  :mod:`repro.scenarios` and ``docs/SCENARIOS.md``.

The running system's principals — :class:`Simulator`, :class:`Network`,
:class:`Repository`, :class:`FrontEnd`, :class:`TransactionManager` —
and the observability hooks — :class:`Tracer`, :class:`MetricsRegistry`,
:class:`Auditor` — are re-exported here, so a traced cluster is
reachable without deep imports::

    import repro
    from repro.types import Register

    spec = repro.KeyspaceSpec(5, (repro.ObjectSpec("x", Register(), "static"),))
    cluster = repro.build_keyspace(spec, seed=0, tracer=repro.Tracer())

Every cluster is a declarative :class:`KeyspaceSpec` (see
``docs/KEYSPACE.md``) compiled through a :class:`Placement` and served
by a :class:`Router`; :func:`build_keyspace` wires the whole thing, and
full replication is the default ``PlacementRule.all()``.  Replicated
objects are declared in the spec, never constructed by hand.
"""

from repro.histories.events import Event, Invocation, Response, event, ok, signal
from repro.histories.behavioral import BehavioralHistory
from repro.spec.datatype import SerialDataType
from repro.spec.legality import LegalityOracle
from repro.dependency.relation import DependencyRelation, SchemaPair
from repro.atomicity.properties import (
    DynamicAtomicity,
    HybridAtomicity,
    StaticAtomicity,
)
from repro.obs.audit import Auditor, AuditReport, Violation
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Span, TraceListener, Tracer
from repro.quorum.assignment import QuorumAssignment
from repro.replication.cluster import Cluster, build_keyspace
from repro.replication.keyspace import (
    KeyspaceSpec,
    ObjectSpec,
    Placement,
    PlacementRule,
    Router,
)
from repro.resilience.policy import (
    POLICIES,
    Deadline,
    OperationResult,
    RetryPolicy,
)
from repro.replication.frontend import FrontEnd
from repro.replication.repository import Repository
from repro.sim.kernel import Simulator
from repro.sim.metrics import MetricRecorder
from repro.sim.network import GatherResult, Network, ProbeReply
from repro.scenarios import (
    MECHANISMS,
    SCENARIOS,
    ArrivalSpec,
    MixSpec,
    ScenarioSpec,
    SkewSpec,
    build_scenario,
    run_scenario,
)
from repro.sim.trials import run_trials
from repro.txn.manager import TransactionManager

__version__ = "1.0.0"

__all__ = [
    "Event",
    "Invocation",
    "Response",
    "event",
    "ok",
    "signal",
    "BehavioralHistory",
    "SerialDataType",
    "LegalityOracle",
    "DependencyRelation",
    "SchemaPair",
    "StaticAtomicity",
    "HybridAtomicity",
    "DynamicAtomicity",
    "QuorumAssignment",
    "Cluster",
    "build_keyspace",
    "KeyspaceSpec",
    "ObjectSpec",
    "Placement",
    "PlacementRule",
    "Router",
    "Simulator",
    "Network",
    "GatherResult",
    "ProbeReply",
    "Repository",
    "FrontEnd",
    "TransactionManager",
    "MetricRecorder",
    "run_trials",
    "Span",
    "Tracer",
    "TraceListener",
    "NullTracer",
    "NULL_TRACER",
    "Histogram",
    "MetricsRegistry",
    "Auditor",
    "AuditReport",
    "Violation",
    "RetryPolicy",
    "Deadline",
    "OperationResult",
    "POLICIES",
    "ArrivalSpec",
    "MECHANISMS",
    "MixSpec",
    "SCENARIOS",
    "ScenarioSpec",
    "SkewSpec",
    "build_scenario",
    "run_scenario",
    "__version__",
]

