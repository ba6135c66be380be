"""Compile scenario specs onto the workload engine and run them audited.

* :func:`build_scenario` — spec → ``(cluster, generator, names)``, the
  one place a simulated run's cluster and
  :class:`~repro.sim.workload.WorkloadGenerator` are built.  A run
  declares its traffic as a :class:`~repro.scenarios.spec.ScenarioSpec`
  and, optionally, its objects as a
  :class:`~repro.replication.keyspace.KeyspaceSpec`; the runs outside
  the catalog (the chaos runner's classic pair, the soak, the measured
  claim rows) declare both next to their driver.  Without a keyspace,
  a multi-object scenario runs over
  :func:`~repro.replication.keyspace.demo_keyspace` with **one**
  concurrency-control scheme for every object, so the same traffic
  shape can be replayed under each of the paper's three atomicity
  mechanisms (:data:`MECHANISMS` maps the paper-facing mechanism names
  onto the cluster's scheme names); the operation mix is compiled per
  object from the scenario's read/write balance and zipf hot-key
  ranking, arrivals from its arrival process.  The ``default`` scenario
  compiles to *exactly* the classic single-queue workload — same
  cluster build, same RNG draw sequence — which
  ``tests/test_scenarios.py`` pins byte-for-byte; with its object count
  replaced, a placement rule and the fault switches it is the standard
  workload the CLI's ``trace`` / ``metrics`` / ``audit`` and the chaos
  runner's sharded cases drive;
* :func:`run_scenario` — one audited run, optionally under a chaos
  profile, through the chaos runner's
  :func:`~repro.resilience.chaos.audited_run`: a plain picklable
  verdict whose ``fingerprint`` sub-dict holds decisions and messages
  only (identical across job counts, pinned per cell by
  ``tests/test_golden_runs.py``) while simulated-clock figures live
  under ``timing``.
"""

from __future__ import annotations

from repro.resilience.policy import read_only_operations
from repro.scenarios.sampler import (
    bursty_arrivals,
    hot_key_ranks,
    poisson_arrivals,
    zipf_weights,
)
from repro.scenarios.spec import ArrivalSpec, ScenarioSpec

__all__ = [
    "MECHANISMS",
    "build_scenario",
    "compile_arrivals",
    "compile_mix",
    "run_scenario",
    "scenario_trial",
]

#: Paper-facing mechanism name → cluster concurrency-control scheme.
#: ``blocking`` is the paper's dynamic atomicity (two-phase locking,
#: transactions block), ``multiversion`` its static atomicity
#: (timestamp-ordered versions), ``hybrid`` the headline mechanism.
MECHANISMS: dict[str, str] = {
    "blocking": "dynamic",
    "multiversion": "static",
    "hybrid": "hybrid",
}


def _scheme_for(mechanism: str) -> str:
    try:
        return MECHANISMS[mechanism]
    except KeyError:
        raise ValueError(
            f"unknown mechanism {mechanism!r} (choose from "
            f"{', '.join(sorted(MECHANISMS))})"
        ) from None


def compile_mix(object_specs, scenario: ScenarioSpec, seed: int):
    """Compile the scenario's weighted mix over a keyspace's objects.

    Per invocation: ``zipf(object rank) × read-or-write weight × named
    multiplier``; an invocation whose named multiplier is 0 is left out.
    Object ranks come from the seeded hot-key shuffle; invocations keep
    catalog order (spec order, then ``datatype.invocations()`` order),
    so the all-ones default compiles to the legacy uniform mix
    *tuple-for-tuple*.  A mix that leaves nothing to draw raises
    :class:`ValueError`.
    """
    from repro.sim.workload import OperationMix

    names = [obj.name for obj in object_specs]
    ranks = hot_key_ranks(names, seed)
    weights = zipf_weights(len(names), scenario.skew.s)
    choices = []
    for obj in object_specs:
        object_weight = weights[ranks[obj.name]]
        read_only = read_only_operations(obj.datatype)
        for invocation in obj.datatype.invocations():
            factor = scenario.mix.multiplier(
                invocation.op, invocation.op in read_only
            )
            if factor:
                choices.append(((obj.name, invocation), object_weight * factor))
    if not choices:
        raise ValueError(
            f"scenario {scenario.name!r}: its mix weighs every operation 0"
        )
    return OperationMix(tuple(choices))


def compile_arrivals(
    scenario: ScenarioSpec, transactions: int, seed: int
) -> tuple[float, ...] | None:
    """The scenario's arrival schedule (``None`` for the closed loop)."""
    arrival: ArrivalSpec = scenario.arrival
    if arrival.kind == "closed":
        return None
    if arrival.kind == "poisson":
        return poisson_arrivals(arrival.rate, transactions, seed)
    return bursty_arrivals(
        arrival.rate,
        arrival.burst_rate,
        arrival.burst_length,
        arrival.cycle,
        transactions,
        seed,
    )


def build_scenario(
    scenario: ScenarioSpec | str,
    *,
    keyspace=None,
    seed: int = 0,
    mechanism: str = "hybrid",
    n_sites: int | None = None,
    transactions: int | None = None,
    placement: str = "all",
    latency: float = 1.0,
    drop_probability: float = 0.0,
    crashes: tuple[float, float] | None = None,
    partitions: bool = False,
    tracer=None,
):
    """Spec → ``(cluster, generator, names)``, ready to run.

    ``keyspace`` is the run's objects, with their own sites, placement,
    schemes and quorums (``n_sites``, ``placement`` and ``mechanism``
    then go unused).  Without one, a single-object scenario under
    ``placement="all"`` builds one fully replicated ``"queue"`` object
    (3 sites by default); anything else builds
    :func:`~repro.replication.keyspace.demo_keyspace` under the
    ``placement`` rule (``"all"`` or ``"ring"``; 5 sites by default),
    ``mechanism`` putting every object under its scheme.  ``latency``
    is the message delay and ``drop_probability`` loses messages;
    ``crashes`` installs the crash injector at that ``(mean uptime,
    mean downtime)``, ``partitions`` the partition injector (a cut every
    80 on average, lasting 10).  The generator is built after the
    injectors; neither the mix nor the arrivals draw from ``sim.rng``.
    """
    from repro.replication.cluster import build_keyspace
    from repro.replication.keyspace import KeyspaceSpec, ObjectSpec, demo_keyspace
    from repro.sim.failures import CrashInjector, PartitionInjector
    from repro.sim.workload import WorkloadGenerator
    from repro.types import Queue

    if isinstance(scenario, str):
        from repro.scenarios.catalog import scenario as lookup

        scenario = lookup(scenario)
    scheme = _scheme_for(mechanism)
    total = transactions if transactions is not None else scenario.transactions
    if keyspace is None and scenario.objects == 1 and placement == "all":
        keyspace = KeyspaceSpec(
            n_sites if n_sites is not None else 3,
            (ObjectSpec("queue", Queue(), scheme=scheme),),
        )
    elif keyspace is None:
        keyspace = demo_keyspace(
            scenario.objects,
            n_sites if n_sites is not None else 5,
            placement=placement,
            scheme=scheme,
        )
    cluster = build_keyspace(
        keyspace,
        seed=seed,
        latency=latency,
        drop_probability=drop_probability,
        tracer=tracer,
    )
    names = tuple(obj.name for obj in keyspace.objects)
    mix = compile_mix(keyspace.objects, scenario, seed)
    if crashes is not None:
        CrashInjector(cluster.network, *crashes).install()
    if partitions:
        PartitionInjector(cluster.network, 80.0, 10.0).install()
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        mix,
        ops_per_transaction=scenario.ops_per_transaction,
        concurrency=scenario.concurrency,
        think_time=scenario.think_time,
        arrivals=compile_arrivals(scenario, total, seed),
    )
    return cluster, generator, names


def run_scenario(
    scenario: ScenarioSpec | str,
    *,
    seed: int = 0,
    mechanism: str = "hybrid",
    profile: str = "none",
    policy: str | None = None,
    n_sites: int | None = None,
    transactions: int | None = None,
    streaming: bool = True,
    window: int | None = None,
) -> dict:
    """One audited scenario run; returns a plain (picklable) verdict.

    ``profile`` is ``"none"`` (fault-free) or one of the chaos
    :data:`~repro.resilience.chaos.PROFILES`; a chaos profile runs under
    ``policy`` (default ``"default"``).  The run itself is
    :func:`~repro.resilience.chaos.audited_run`'s, watched by
    bounded-memory streaming monitors by default (``streaming=False``
    audits deep); the verdict is its plus this run's header.
    """
    from repro.obs.audit import DEFAULT_STREAM_WINDOW
    from repro.obs.trace import Tracer
    from repro.resilience.chaos import audited_run

    if isinstance(scenario, str):
        from repro.scenarios.catalog import scenario as lookup

        scenario = lookup(scenario)
    if policy is None and profile != "none":
        policy = "default"
    win = window if window is not None else DEFAULT_STREAM_WINDOW
    tracer = Tracer(retention="ring", window=win) if streaming else Tracer()
    total = transactions if transactions is not None else scenario.transactions
    cluster, generator, names = build_scenario(
        scenario,
        seed=seed,
        mechanism=mechanism,
        n_sites=n_sites,
        transactions=total,
        tracer=tracer,
    )
    verdict = audited_run(
        cluster,
        generator,
        names,
        seed=seed,
        transactions=total,
        profile=profile,
        policy=policy,
        window=win if streaming else None,
    )
    return {
        "scenario": scenario.name,
        "seed": seed,
        "mechanism": mechanism,
        "scheme": _scheme_for(mechanism),
        "profile": profile,
        "policy": policy,
        "n_sites": cluster.network.n_sites,
        "transactions": total,
        **verdict,
    }


def scenario_trial(
    seed: int,
    *,
    scenario: str,
    mechanism: str = "hybrid",
    profile: str = "none",
    policy: str | None = None,
    transactions: int | None = None,
) -> dict:
    """Module-level trial wrapper so sweeps pickle under ``--jobs N``."""
    return run_scenario(
        scenario,
        seed=seed,
        mechanism=mechanism,
        profile=profile,
        policy=policy,
        transactions=transactions,
    )
