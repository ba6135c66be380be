"""Compile scenario specs onto the workload engine and run them audited.

* :func:`build_scenario` — spec → ``(cluster, generator, names)``: a
  multi-object scenario runs over the fully replicated
  :func:`~repro.replication.keyspace.demo_keyspace` with **one**
  concurrency-control scheme for every object, so the same traffic
  shape can be replayed under each of the paper's three atomicity
  mechanisms (:data:`MECHANISMS` maps the paper-facing mechanism names
  onto the cluster's scheme names); the
  operation mix is compiled per object from the scenario's read/write
  balance and zipf hot-key ranking, arrivals from its arrival process,
  and both ride the :class:`~repro.sim.workload.WorkloadGenerator`'s
  ``mix``/``arrivals`` inputs.  The ``default`` scenario compiles to
  *exactly* the standard workload — same cluster build, same RNG draw
  sequence — which ``tests/test_scenarios.py`` pins byte-for-byte;
* :func:`build_workload` — that standard workload itself: the tier-1
  shape the CLI's workload subcommands, the audit sweep and the
  deep-vs-streaming equivalence check all drive;
* :func:`run_scenario` — one audited run, optionally under a chaos
  profile, ending in the chaos runner's own
  :func:`~repro.resilience.chaos.settle` and
  :func:`~repro.resilience.chaos.run_verdict`: a plain picklable verdict
  whose ``fingerprint`` sub-dict holds decisions and messages only
  (identical across job counts, pinned per cell by
  ``tests/test_golden_runs.py``) while simulated-clock figures live
  under ``timing``.
"""

from __future__ import annotations

from repro.resilience.chaos import (
    PROFILES,
    ChaosSchedule,
    generate_schedule,
    run_verdict,
    settle,
)
from repro.resilience.policy import POLICIES, read_only_operations
from repro.scenarios.catalog import SCENARIOS
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
    "build_workload",
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
    multiplier``.  Object ranks come from the seeded hot-key shuffle;
    invocations keep catalog order (spec order, then
    ``datatype.invocations()`` order), so the all-ones default compiles
    to the legacy uniform mix *tuple-for-tuple*.
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
            choices.append(((obj.name, invocation), object_weight * factor))
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
    seed: int = 0,
    mechanism: str = "hybrid",
    n_sites: int | None = None,
    transactions: int | None = None,
    tracer=None,
    workload=None,
):
    """Spec → ``(cluster, generator, names)``, ready to run.

    A single-object scenario builds one fully replicated ``"queue"``
    object (3 sites by default); multi-object scenarios build the fully
    replicated :func:`~repro.replication.keyspace.demo_keyspace` under
    the mechanism's scheme (5 sites by default).  ``workload``
    replaces the driver's :class:`~repro.sim.workload.MixWorkload` over
    the compiled mix with a user-supplied
    :class:`~repro.scenarios.spec.ScenarioWorkload` (its ``init`` is
    called here, before any transaction runs).
    """
    from repro.replication.cluster import build_keyspace
    from repro.replication.keyspace import KeyspaceSpec, ObjectSpec, demo_keyspace
    from repro.sim.workload import WorkloadGenerator
    from repro.types import Queue

    if isinstance(scenario, str):
        from repro.scenarios.catalog import scenario as lookup

        scenario = lookup(scenario)
    scheme = _scheme_for(mechanism)
    total = transactions if transactions is not None else scenario.transactions
    if scenario.objects == 1:
        spec = KeyspaceSpec(
            n_sites if n_sites is not None else 3,
            (ObjectSpec("queue", Queue(), scheme=scheme),),
        )
    else:
        spec = demo_keyspace(
            scenario.objects,
            n_sites if n_sites is not None else 5,
            placement="all",
            scheme=scheme,
        )
    cluster = build_keyspace(spec, seed=seed, drop_probability=0.0, tracer=tracer)
    names = tuple(obj.name for obj in spec.objects)
    mix = compile_mix(spec.objects, scenario, seed)
    if workload is not None:
        workload.init(cluster)
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        mix,
        ops_per_transaction=scenario.ops_per_transaction,
        concurrency=scenario.concurrency,
        think_time=scenario.think_time,
        workload=workload,
        arrivals=compile_arrivals(scenario, total, seed),
    )
    return cluster, generator, names


def build_workload(
    *,
    seed: int,
    sites: int,
    drop_probability: float = 0.0,
    objects: int = 1,
    placement: str = "all",
    crashes: bool = False,
    partitions: bool = False,
    tracer=None,
    profiler=None,
):
    """Assemble the standard (tier-1, CLI) workload without running it.

    Returns ``(cluster, generator)`` so callers can attach observers
    (the online auditor) or apply a seeded mutation between construction
    and ``generator.run``.  ``objects=1, placement="all"`` is the classic
    single fully replicated hybrid queue; any other setting builds the
    mixed queue/register/counter
    :func:`~repro.replication.keyspace.demo_keyspace` and drives a
    uniform cross-object mix.  ``crashes`` / ``partitions`` install the
    stochastic injectors (mean uptime 60 / downtime 8; a cut every 80
    on average, lasting 10).
    """
    from repro.replication.cluster import build_keyspace
    from repro.replication.keyspace import (
        KeyspaceSpec,
        ObjectSpec,
        demo_keyspace,
        demo_mix,
    )
    from repro.sim.failures import CrashInjector, PartitionInjector
    from repro.sim.workload import WorkloadGenerator
    from repro.types import Queue

    if objects > 1 or placement != "all":
        spec = demo_keyspace(objects, sites, placement=placement)
    else:
        spec = KeyspaceSpec(sites, (ObjectSpec("queue", Queue()),))
    cluster = build_keyspace(
        spec,
        seed=seed,
        drop_probability=drop_probability,
        tracer=tracer,
        profiler=profiler,
    )
    mix = demo_mix(spec)
    if crashes:
        CrashInjector(cluster.network, 60.0, 8.0).install()
    if partitions:
        PartitionInjector(cluster.network, 80.0, 10.0).install()
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        mix,
        ops_per_transaction=3,
        concurrency=4,
    )
    return cluster, generator


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
    workload=None,
) -> dict:
    """One audited scenario run; returns a plain (picklable) verdict.

    ``profile`` is ``"none"`` (fault-free) or one of the chaos
    :data:`~repro.resilience.chaos.PROFILES`; a chaos profile enables
    the resilience layer under ``policy`` (default ``"default"``),
    applies the boundary-indexed fault schedule, and after the run
    settles the cluster with the chaos runner's own
    :func:`~repro.resilience.chaos.settle`.  The auditor watches every
    run (bounded-memory streaming monitors by default); the verdict is
    :func:`~repro.resilience.chaos.run_verdict`'s plus this run's
    header and the tracer's retention figures under ``timing``.
    """
    from repro.obs.audit import DEFAULT_STREAM_WINDOW, Auditor
    from repro.obs.trace import Tracer

    if isinstance(scenario, str):
        from repro.scenarios.catalog import scenario as lookup

        scenario = lookup(scenario)
    if profile != "none" and profile not in PROFILES:
        raise ValueError(
            f"unknown profile {profile!r} (use 'none' or one of {PROFILES})"
        )
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
        workload=workload,
    )
    sites = cluster.network.n_sites
    policy_name = policy
    if profile != "none" and policy_name is None:
        policy_name = "default"
    if policy_name is not None:
        if policy_name not in POLICIES:
            raise ValueError(
                f"unknown policy {policy_name!r} "
                f"(choose from {', '.join(sorted(POLICIES))})"
            )
        cluster.enable_resilience(POLICIES[policy_name])
    auditor = Auditor(
        cluster, mode="streaming" if streaming else "deep", window=win
    )
    schedule = None
    if profile != "none":
        schedule = ChaosSchedule(generate_schedule(profile, seed, sites, total))
        generator.on_transaction_start = schedule.hook(cluster.network)
    metrics = generator.run(total)
    converged = settle(cluster, names) if schedule is not None else True
    report = auditor.finish()
    verdict = run_verdict(
        cluster,
        names,
        metrics,
        report,
        transactions=total,
        converged=converged,
        faults_applied=schedule.applied if schedule is not None else 0,
    )
    verdict["timing"].update(
        retained_spans=report.retained_spans, peak_retained=report.peak_retained
    )
    return {
        "scenario": scenario.name,
        "seed": seed,
        "mechanism": mechanism,
        "scheme": _scheme_for(mechanism),
        "profile": profile,
        "policy": policy_name,
        "n_sites": sites,
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
